package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
)

// smokeConfig runs a workload at a twenty-fifth of its size with plain
// memory in place of the real-time S3 model: seconds in total and nothing
// that depends on the wall clock.
func smokeConfig(t *testing.T, trace bool) runConfig {
	return runConfig{seed: 1, seconds: 0, trace: trace, scale: 0.04, noSim: true, minRounds: 1, setups: 1, dir: t.TempDir()}
}

// benchmarkJSON mirrors the contract's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationsMatchBenchmarkJSON fails if the program prints a workload
// or metric name BENCHMARK.json does not declare, or the reverse, or with
// another unit, or a name outside [A-Za-z0-9_.-].
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var got, want []string
	for _, w := range workloads {
		got = append(got, w.name)
	}
	for _, w := range b.Workloads {
		want = append(want, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads: program has %v, BENCHMARK.json has %v", got, want)
	}

	check := func(kind string, defs []metricDef, decl []declared, bounded bool) {
		seen := map[string]bool{}
		byName := map[string]declared{}
		for _, d := range decl {
			byName[d.Name] = d
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s metric %q: bad name", kind, d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("%s metric %q: bad unit %q", kind, d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("%s metric %q declared twice in the program", kind, d.name)
			}
			seen[d.name] = true
			j, ok := byName[d.name]
			if !ok {
				t.Errorf("%s metric %q is printed but not declared in BENCHMARK.json", kind, d.name)
				continue
			}
			if j.Unit != d.unit {
				t.Errorf("%s metric %q: unit %q in the program, %q in BENCHMARK.json", kind, d.name, d.unit, j.Unit)
			}
			if j.Better != "lower" && j.Better != "higher" {
				t.Errorf("%s metric %q: better is %q", kind, d.name, j.Better)
			}
			if bounded && (j.Bound <= 0 || j.Bound > 0.25) {
				t.Errorf("%s metric %q: bound %v outside (0, 0.25]", kind, d.name, j.Bound)
			}
		}
		for _, d := range decl {
			if !seen[d.Name] {
				t.Errorf("%s metric %q is declared in BENCHMARK.json but not printed", kind, d.Name)
			}
		}
	}
	check("end-to-end", endToEnd, b.EndToEnd, true)
	check("per-layer", perLayer, b.PerLayer, false)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", b.RunSeconds)
	}
}

// TestSmoke runs every workload, untraced and traced, at smoke scale: every
// oracle must hold, no operation may fail, and every declared metric must
// be printed by name with its unit and be part of the result line.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			name := w.name
			defs := endToEnd
			if trace {
				name += "/traced"
				defs = perLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig(t, trace)
				var out bytes.Buffer
				res, err := runWorkload(context.Background(), w, cfg, &out)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.name]
					if !ok || v.Unit != d.unit {
						t.Errorf("result lacks %s [%s]", d.name, d.unit)
					}
					if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.name) + `\s+\S+ ` + regexp.QuoteMeta(d.unit) + `$`).MatchString(out.String()) {
						t.Errorf("report does not print %s with unit %s", d.name, d.unit)
					}
				}
				if !trace {
					for _, d := range endToEnd {
						if res.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v, want > 0", d.name, res.Metrics[d.name].Value)
						}
					}
					return
				}
				if _, err := os.Stat(cfg.dir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("span file: %v", err)
				}
				// Request-count identities that hold on unchanged code.
				for name, want := range map[string]float64{
					"storage.retry.retries":              0,
					"tql.pushdown_origin_requests":       0,
					"dataloader.decodes_per_chunk_epoch": 1,
				} {
					if got := res.Metrics[name].Value; got != want {
						t.Errorf("%s = %v, want %v", name, got, want)
					}
				}
			})
		}
	}
}

// TestTracedRunMakesTheSameRequests is the transparency check on a whole
// run: the traced stream_s3 smoke (a tap above every storage layer) must
// reach the origin exactly as often as the untraced one, still in batches,
// and Verify must have CRC-checked every chunk object in both — which it
// only does if SeedDigests walked through the taps.
func TestTracedRunMakesTheSameRequests(t *testing.T) {
	w := workloadByName("stream_s3")
	var requests [2]int64
	for i, trace := range []bool{false, true} {
		m, err := measure(context.Background(), w, smokeConfig(t, trace))
		if err != nil {
			t.Fatal(err)
		}
		if m.b.rec.failed != 0 {
			t.Fatalf("trace=%v: %v", trace, m.b.rec.failures)
		}
		requests[i] = m.b.read.requests()
		if m.b.read[cBatchGets] == 0 {
			t.Errorf("trace=%v: no batched origin reads; coalesced prefetch is off", trace)
		}
		if got := m.b.verifiedRatio(); got != 1 {
			t.Errorf("trace=%v: storage.verify.verified_ratio = %v, want 1", trace, got)
		}
	}
	if requests[0] != requests[1] {
		t.Errorf("origin requests: %d untraced, %d traced", requests[0], requests[1])
	}
}

// TestTapIsTransparent checks the three extensions a wrapper must forward
// for the chain above and below it to behave as if it were not there.
func TestTapIsTransparent(t *testing.T) {
	ctx := context.Background()
	mem := storage.NewMemory()
	for _, k := range []string{"a", "b", "c"} {
		if err := mem.Put(ctx, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	counting := storage.NewCounting(mem)
	verify := storage.NewVerify(&tap{inner: counting, name: "retry"}, storage.VerifyOptions{})
	lru := storage.NewLRU(&tap{inner: verify, name: "verify"}, 1<<20)
	var top storage.Provider = &prefetchTap{tap: tap{inner: lru, name: "lru"}, pf: lru}

	// GetRanges: one batch above is one batch below, not three Gets.
	pf, ok := top.(storage.Prefetcher)
	if !ok {
		t.Fatal("tap over the LRU does not implement storage.Prefetcher")
	}
	if n, err := pf.Prefetch(ctx, []string{"a", "b", "c"}, storage.PlanOptions{}); err != nil || n != 3 {
		t.Fatalf("Prefetch = %d, %v", n, err)
	}
	if s := counting.Snapshot(); s.BatchGets != 1 || s.BatchRanges != 3 || s.Gets != 0 {
		t.Errorf("origin saw %+v, want one batch of three ranges", s)
	}
	// Unwrap: chain walks reach the layers below the taps.
	if n := storage.SeedDigests(top, map[string]uint32{"a": storage.Checksum([]byte("a"))}); n != 1 {
		t.Errorf("SeedDigests seeded %d digests through the taps, want 1", n)
	}
	if got := lru.Stats().Origin.BatchGets; got != 1 {
		t.Errorf("LRU.Stats sees %d batched origin reads through the taps, want 1", got)
	}
}

// TestSpeedScaling checks the arithmetic of the host-speed scaling on made-up
// units (no clock involved): a series that never had a request in flight at
// an origin is scaled in full, one that always had and used no CPU not at
// all, and the slow units of a series do not speak for its typical one.
func TestSpeedScaling(t *testing.T) {
	const ms = time.Millisecond
	r := newRecorder()
	unit := func(name string, c unitCost) {
		r.addDuration(name, c.wall)
		r.costs[name] = append(r.costs[name], c)
	}
	for i := 0; i < 9; i++ {
		unit("computes", unitCost{wall: 2 * ms, cpu: 2 * ms})
		unit("waits", unitCost{wall: 80 * ms, cpu: ms, origin: 80 * ms})
		unit("mixed", unitCost{wall: 2 * ms, cpu: 2 * ms})
	}
	unit("mixed", unitCost{wall: 80 * ms, cpu: 2 * ms, origin: 78 * ms}) // the cold first query
	for name, want := range map[string]float64{"computes": 1, "waits": 0, "mixed": 1, "absent": 0} {
		if got := r.cpuBound(name); got != want {
			t.Errorf("cpuBound(%s) = %v, want %v", name, got, want)
		}
	}
	// On a host a fifth slower than nominal a CPU-bound 2 ms reads 1.6 ms.
	if got := r.scaled("computes", r.cpuBound("computes"), 0.8); got < 0.0016-1e-9 || got > 0.0016+1e-9 {
		t.Errorf("scaled = %v s, want 0.0016", got)
	}
	if got := r.scaled("waits", r.cpuBound("waits"), 0.8); got != 0.08 {
		t.Errorf("scaled = %v s, want 0.08", got)
	}
	if got := newRecorder().speed(); got != 1 {
		t.Errorf("speed without samples = %v, want 1", got)
	}
}

// TestInflightClock checks that overlapping calls are counted once.
func TestInflightClock(t *testing.T) {
	var c inflightClock
	c.enter()
	c.enter()
	time.Sleep(2 * time.Millisecond)
	if c.busy() < 2*time.Millisecond {
		t.Errorf("busy = %v while two calls are in flight for 2 ms", c.busy())
	}
	c.leave()
	c.leave()
	done := c.busy()
	time.Sleep(time.Millisecond)
	if c.busy() != done {
		t.Errorf("busy grew from %v to %v with nothing in flight", done, c.busy())
	}
}
