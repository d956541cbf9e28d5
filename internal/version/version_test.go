package version

import (
	"encoding/json"
	"testing"
	"time"
)

var t0 = time.Date(2023, 1, 8, 0, 0, 0, 0, time.UTC)

func TestNewTreeHasMutableMainHead(t *testing.T) {
	tr := NewTree(t0)
	head, err := tr.Head(DefaultBranch)
	if err != nil {
		t.Fatal(err)
	}
	if head.Committed || head.Parent != "" || head.Branch != DefaultBranch {
		t.Fatalf("head = %+v", head)
	}
	if _, err := tr.Head("dev"); err == nil {
		t.Fatal("unknown branch should error")
	}
}

func TestCommitFreezesAndAdvances(t *testing.T) {
	tr := NewTree(t0)
	first, _ := tr.Head("main")
	committed, newHead, err := tr.Commit("main", "initial data", t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if committed.ID != first.ID || !committed.Committed || committed.Message != "initial data" {
		t.Fatalf("committed = %+v", committed)
	}
	if newHead.Committed || newHead.Parent != committed.ID {
		t.Fatalf("new head = %+v", newHead)
	}
	cur, _ := tr.Head("main")
	if cur.ID != newHead.ID {
		t.Fatal("branch head not advanced")
	}
}

func TestAncestryOrder(t *testing.T) {
	tr := NewTree(t0)
	c1, _, _ := tr.Commit("main", "c1", t0)
	c2, _, _ := tr.Commit("main", "c2", t0)
	head, _ := tr.Head("main")
	anc, err := tr.Ancestry(head.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{head.ID, c2.ID, c1.ID}
	if len(anc) != 3 {
		t.Fatalf("ancestry = %v", anc)
	}
	for i := range want {
		if anc[i] != want[i] {
			t.Fatalf("ancestry = %v, want %v", anc, want)
		}
	}
	if _, err := tr.Ancestry("missing"); err == nil {
		t.Fatal("unknown node should error")
	}
}

func TestBranchingAndResolve(t *testing.T) {
	tr := NewTree(t0)
	c1, _, _ := tr.Commit("main", "base", t0)
	devHead, err := tr.CreateBranch("dev", "main", t0)
	if err != nil {
		t.Fatal(err)
	}
	if devHead.Parent != c1.ID {
		t.Fatalf("dev parent = %q, want last commit %q (branch from mutable head forks at last commit)", devHead.Parent, c1.ID)
	}
	if _, err := tr.CreateBranch("dev", "main", t0); err == nil {
		t.Fatal("duplicate branch should error")
	}
	if _, err := tr.CreateBranch("", "main", t0); err == nil {
		t.Fatal("empty branch name should error")
	}
	if _, err := tr.CreateBranch("x", "nope", t0); err == nil {
		t.Fatal("unknown from ref should error")
	}

	// Resolve by branch and by id.
	n, err := tr.Resolve("dev")
	if err != nil || n.ID != devHead.ID {
		t.Fatalf("Resolve(dev) = %+v, %v", n, err)
	}
	n, err = tr.Resolve(c1.ID)
	if err != nil || n.ID != c1.ID {
		t.Fatalf("Resolve(c1) = %+v, %v", n, err)
	}
	bs := tr.Branches()
	if len(bs) != 2 || bs[0] != "dev" || bs[1] != "main" {
		t.Fatalf("Branches = %v", bs)
	}
}

func TestBranchFromEmptyRoot(t *testing.T) {
	tr := NewTree(t0)
	head, err := tr.CreateBranch("scratch", "main", t0)
	if err != nil {
		t.Fatal(err)
	}
	if head.Parent != "" {
		t.Fatalf("scratch from empty main should have no parent, got %q", head.Parent)
	}
}

func TestCommonAncestor(t *testing.T) {
	tr := NewTree(t0)
	c1, _, _ := tr.Commit("main", "c1", t0)
	tr.CreateBranch("dev", "main", t0)
	tr.Commit("dev", "d1", t0)
	tr.Commit("main", "c2", t0)

	base, err := tr.CommonAncestor("main", "dev")
	if err != nil {
		t.Fatal(err)
	}
	if base != c1.ID {
		t.Fatalf("merge base = %q, want %q", base, c1.ID)
	}
	if _, err := tr.CommonAncestor("main", "ghost"); err == nil {
		t.Fatal("unknown ref should error")
	}
}

func TestLogListsCommitsNewestFirst(t *testing.T) {
	tr := NewTree(t0)
	c1, _, _ := tr.Commit("main", "one", t0)
	c2, _, _ := tr.Commit("main", "two", t0.Add(time.Minute))
	log, err := tr.Log("main")
	if err != nil {
		t.Fatal(err)
	}
	if len(log) != 2 || log[0].ID != c2.ID || log[1].ID != c1.ID {
		t.Fatalf("log = %v", log)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := NewTree(t0)
	tr.Commit("main", "c1", t0)
	tr.CreateBranch("dev", "main", t0)
	blob, err := tr.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(tr.Nodes) || len(back.Heads) != len(tr.Heads) {
		t.Fatalf("round trip: %d nodes %d heads", len(back.Nodes), len(back.Heads))
	}
	h1, _ := tr.Head("dev")
	h2, err := back.Head("dev")
	if err != nil || h1.ID != h2.ID {
		t.Fatalf("dev head mismatch: %v vs %v", h1, h2)
	}
	if _, err := Unmarshal([]byte("{}")); err == nil {
		t.Fatal("malformed tree should error")
	}
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Fatal("garbage should error")
	}
}

func TestUnmarshalRejectsCommittedHead(t *testing.T) {
	tr := NewTree(t0)
	head, _ := tr.Head("main")
	head.Committed = true // corrupt: heads must be mutable
	blob, _ := tr.Marshal()
	if _, err := Unmarshal(blob); err == nil {
		t.Fatal("committed head should be rejected")
	}
}

func TestDeterministicIDs(t *testing.T) {
	a := NewTree(t0)
	b := NewTree(t0)
	ah, _ := a.Head("main")
	bh, _ := b.Head("main")
	if ah.ID != bh.ID {
		t.Fatalf("ids differ across fresh trees: %q vs %q", ah.ID, bh.ID)
	}
}

// TestStampHasAFixedWidth: every time marshals to RFC 3339 in UTC with nine
// fractional digits and reads back equal.
func TestStampHasAFixedWidth(t *testing.T) {
	base := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	for _, c := range []struct {
		at   time.Time
		want string
	}{
		{time.Time{}, `"0001-01-01T00:00:00.000000000Z"`},
		{base, `"2026-01-02T03:04:05.000000000Z"`},
		{base.Add(120 * time.Millisecond), `"2026-01-02T03:04:05.120000000Z"`},
		{base.Add(7), `"2026-01-02T03:04:05.000000007Z"`},
		{base.Add(123456789).In(time.FixedZone("x", -7*3600)), `"2026-01-02T03:04:05.123456789Z"`},
	} {
		raw, err := json.Marshal(Stamp{c.at})
		if err != nil || string(raw) != c.want {
			t.Fatalf("Stamp(%v) = %s, %v; want %s", c.at, raw, err, c.want)
		}
		var back Stamp
		if err := json.Unmarshal(raw, &back); err != nil || !back.Equal(c.at) {
			t.Fatalf("%s reads back %v, %v; want %v", raw, back, err, c.at)
		}
	}
	if _, err := json.Marshal(Stamp{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}); err == nil {
		t.Fatal("a year past 9999 marshalled")
	}
}
