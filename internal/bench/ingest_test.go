package bench

import (
	"context"
	"testing"
)

// TestIngestScenario asserts the write-path acceptance criteria at test
// scale: every writer configuration lands all samples (the runner verifies
// row counts against a reopened dataset) and reports a throughput. How
// parallel writers compare with the serial synchronous path depends on the
// host, so CI's benchcheck baselines gate that, not a test.
func TestIngestScenario(t *testing.T) {
	res, err := IngestThroughput(context.Background(), Config{N: 96, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	serial, ok := res.Value("deeplake-serial")
	if !ok {
		t.Fatal("deeplake-serial row missing")
	}
	w16, ok := res.Value("writers-16")
	if !ok {
		t.Fatal("writers-16 row missing")
	}
	if serial <= 0 || w16 <= 0 {
		t.Fatalf("non-positive ingest throughput: serial %.1f, writers-16 %.1f", serial, w16)
	}
	for _, name := range []string{"tfrecord", "webdataset"} {
		if v, ok := res.Value(name); !ok || v <= 0 {
			t.Fatalf("baseline %s missing or non-positive", name)
		}
	}
}
