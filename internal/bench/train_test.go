package bench

import (
	"context"
	"strings"
	"testing"
)

// TestTrainScenario asserts the PR's acceptance criteria at test scale. The
// TrainStream runner itself fails when origin requests are not strictly
// fewer than chunks (coalesced fetch plans), when any chunk is fetched or
// decoded more than once per epoch per rank, or when the batch stream is
// not byte-identical across worker counts — so a clean return already
// covers the contracts; the checks here guard the reported series' shape.
// Throughput rows must be present and positive but are never compared with
// one another: that depends on the host's cores, and is `benchfig train`'s
// gate, not a test's.
func TestTrainScenario(t *testing.T) {
	res, err := TrainStream(context.Background(), Config{N: 96, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, ok := res.Value("deeplake-serial")
	if !ok {
		t.Fatal("deeplake-serial row missing")
	}
	w16, ok := res.Value("workers-16")
	if !ok {
		t.Fatal("workers-16 row missing")
	}
	if serial <= 0 || w16 <= 0 {
		t.Fatalf("non-positive throughput: serial %.1f, workers-16 %.1f", serial, w16)
	}
	if _, ok := res.Value("ranks-4"); !ok {
		t.Fatal("ranks-4 row missing")
	}
	for _, name := range []string{"tfrecord", "webdataset"} {
		if base, ok := res.Value(name); !ok || base <= 0 {
			t.Fatalf("%s baseline row missing or non-positive: %.1f", name, base)
		}
	}
	reqs, ok := res.Value("origin-requests-16")
	if !ok {
		t.Fatal("origin-requests-16 row missing")
	}
	if reqs < 1 {
		t.Fatalf("origin-requests-16 reports %.0f requests", reqs)
	}
	verified := false
	for _, n := range res.Notes {
		if strings.Contains(n, "byte-identical") {
			verified = true
		}
	}
	if !verified {
		t.Fatal("determinism pass did not run")
	}
}
