// Command lakebench is the repository's benchmark: four workloads, ten
// end-to-end metrics, and — in a separate traced run — per-layer
// attribution measured from outside the program. See README.md.
//
//	go run ./benchmarks/lakebench --workload stream_s3 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/storage"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "generator seed; the program only ever sees generated inputs")
	seconds := flag.Float64("seconds", 20, "length of the timed section")
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes trace-<workload>.json")
	flag.Parse()

	var todo []*workload
	if *name == "all" {
		for i := range workloads {
			todo = append(todo, &workloads[i])
		}
	} else if w := workloadByName(*name); w != nil {
		todo = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "lakebench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: 1, minRounds: 3, setups: 3, dir: "."}
	failed := false
	for _, w := range todo {
		res, err := runWorkload(context.Background(), w, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lakebench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lakebench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// setUp generates the workload's inputs from the seed and, for workloads
// that read a pre-existing dataset, builds it through the public write path
// straight into memory (no cost model: it is not what is being measured).
func setUp(ctx context.Context, w *workload, cfg runConfig) (*source, *storage.Memory, error) {
	n := cfg.rowsOf(w.rows)
	if w.rows == 0 {
		// Distinct rows for every ingest step of the measured pass.
		n = 0
		for _, s := range w.prologue(cfg.seconds) {
			n += s.n * cfg.stepRows()
		}
	}
	src, err := generate(w.kind, cfg.seed, n)
	if err != nil || w.rows == 0 {
		return src, nil, err
	}
	data := storage.NewMemory()
	ds, tensors, err := src.createDataset(ctx, data)
	if err != nil {
		return nil, nil, err
	}
	for i := range src.rows {
		if err := src.appendRow(ctx, tensors, &src.rows[i]); err != nil {
			return nil, nil, err
		}
	}
	if _, err := ds.Commit(ctx, "set-up"); err != nil {
		return nil, nil, err
	}
	return src, data, nil
}

// usage is the process-level resource reading taken around the timed pass.
type usage struct {
	cpu    time.Duration
	mem    runtime.MemStats
	maxRSS int64 // KiB
}

func readUsage() usage {
	var u usage
	u.cpu, u.maxRSS = rusage()
	runtime.ReadMemStats(&u.mem)
	return u
}

// measurement is what one invocation measured, before it is reported.
type measurement struct {
	b  *bench
	tr *tracer
	// setups holds set-up's repetitions and the speed samples taken between
	// them.
	setups        *recorder
	elapsed       time.Duration
	before, after usage
}

// measure is one invocation up to the report: set-up (repeated, for its
// typical duration), an untimed warm-up round, the measured pass, and the untimed
// read-back check.
func measure(ctx context.Context, w *workload, cfg runConfig) (*measurement, error) {
	m := &measurement{}
	var (
		src  *source
		data *storage.Memory
	)
	// Set-up is repeated at least cfg.setups times, and up to eight while
	// the repeats together have taken under two seconds: a 0.2 s set-up
	// measured three times spreads 50 % from run to run.
	begin := time.Now()
	setups := newRecorder()
	for i := 0; i < cfg.setups || (i < 8 && cfg.setups > 1 && time.Since(begin) < 2*time.Second); i++ {
		setups.sampleSpeed(speedBurst)
		watch := startWatch()
		var err error
		if src, data, err = setUp(ctx, w, cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.addUnit("setup", watch)
	}
	m.setups = setups
	if cfg.trace {
		m.tr = newTracer()
	}
	nrows := 0
	if data != nil {
		nrows = len(src.rows)
	}

	// Warm-up: one round with every phase once, so the heap is grown and
	// touched, lazily built state exists, and — on the warm workload — the
	// cache is full before the clock starts. Its samples are discarded; an
	// operation that fails in it still counts.
	warm := newBench(w, cfg, m.tr, src, data, nrows)
	warm.warmUp(ctx)
	m.tr.reset()

	b := newBench(w, cfg, m.tr, src, data, nrows)
	b.rec.absorb(warm.rec)
	if !w.cold {
		b.chain, b.base, b.ds = warm.chain, snap(warm.chain), warm.ds
	}
	runtime.GC()
	m.before = readUsage()
	m.elapsed = b.run(ctx)
	m.after = readUsage()
	b.verifyIngest(ctx)
	m.b = b
	return m, nil
}

// runWorkload measures one workload and prints the report; the returned
// result is the invocation's last output line.
func runWorkload(ctx context.Context, w *workload, cfg runConfig, out io.Writer) (*result, error) {
	m, err := measure(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	b := m.b
	fmt.Fprintf(out, "# lakebench %s: seed %d, closed loop, 1 client, %d rounds in %.2f s, set-up x%d\n",
		w.name, cfg.seed, len(b.rec.series["round"]), m.elapsed.Seconds(), len(m.setups.series["setup"]))
	// The host's speed is one number for the invocation: set-up's samples of
	// the reference operation are pooled with the measured pass's.
	b.rec.series["ref_op"] = append(b.rec.series["ref_op"], m.setups.series["ref_op"]...)
	speed := b.rec.speed()
	fmt.Fprintf(out, "# reference operation %s; nominal %.4g us, so host speed %.3f: CPU-bound timings below are scaled to nominal\n",
		b.rec.series["ref_op"].describe(1e6, "us"), refOpNominal.Seconds()*1e6, speed)
	e2e := b.endToEnd(m.setups.scaled("setup", m.setups.cpuBound("setup"), speed), speed)
	report(out, "end-to-end", endToEnd, e2e)
	b.describeSeries(out)
	metrics, defs := e2e, endToEnd
	if cfg.trace {
		metrics, defs = b.layers(ctx, m.elapsed, m.before, m.after), perLayer
		report(out, "per-layer (traced run)", perLayer, metrics)
		path := filepath.Join(cfg.dir, "trace-"+w.name+".json")
		if err := m.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	}
	for _, f := range b.rec.failures {
		fmt.Fprintf(out, "# FAILED %s\n", f)
	}
	fmt.Fprintf(out, "# operations attempted %d, failed %d\n", b.rec.attempted, b.rec.failed)

	res := &result{Correct: b.rec.failed == 0, Attempted: b.rec.attempted, Failed: b.rec.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	return res, nil
}

func report(out io.Writer, title string, defs []metricDef, values map[string]float64) {
	fmt.Fprintf(out, "## %s\n", title)
	for _, d := range defs {
		fmt.Fprintf(out, "%-40s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// describeSeries prints the repeated units behind the metrics, as measured
// (not scaled to nominal speed): lower quartile, median, the highest
// percentile the count supports, the count, and — for the series a metric is
// made of — how CPU-bound its units were, which is the share of the speed
// scaling applied to it.
func (b *bench) describeSeries(out io.Writer) {
	fmt.Fprintln(out, "## repeated units")
	for _, s := range []struct {
		series, unit string
		scale        float64
	}{
		{"round", "s", 1}, {"open", "ms", 1e3}, {"epoch", "s", 1}, {"epoch_wall", "s", 1},
		{"epoch_first", "ms", 1e3}, {"epoch_first_wall", "ms", 1e3}, {"batch_wait", "ms", 1e3},
		{"scan", "s", 1}, {"scan_wall", "s", 1}, {"filter", "ms", 1e3}, {"push", "ms", 1e3},
		{"group", "ms", 1e3}, {"view_epoch", "s", 1}, {"view_epoch_wall", "s", 1},
		{"append", "us", 1e6}, {"commit", "ms", 1e3}, {"commit_puts", "puts", 1},
	} {
		line := b.rec.series[s.series].describe(s.scale, s.unit)
		if len(b.rec.costs[s.series]) > 0 {
			line += fmt.Sprintf(", cpu-bound %.2f", b.speedShare(s.series))
		}
		fmt.Fprintf(out, "%-40s %s\n", s.series, line)
	}
}

// speedShare is the share of the series' typical unit that is scaled to the
// nominal host speed: how CPU-bound it was — except for the units that touch
// sample data on raw frames. The reference operation stands for code that
// computes on small objects: parsing metadata, evaluating queries, decoding
// JPEGs. Raw 16 KiB frames are moved, not computed on, and the units that
// move them do not follow it: over a change of host speed that slowed the
// reference operation and every D_img unit by 15-22 %, stream_s3's Q_scan
// took 0.95-1.09 s before and 0.96-1.03 s after. Those are reported as
// measured.
func (b *bench) speedShare(series string) float64 {
	switch series {
	case "epoch", "epoch_first", "scan", "view_epoch":
		if b.w.kind == dFrames {
			return 0
		}
	}
	return b.rec.cpuBound(series)
}

// endToEnd computes the ten user-visible metrics from the measured pass.
// Every timing is the typical (lower-quartile) duration of its repeated
// unit; units long enough for it (epochs, scans, set-up) have had their
// stolen time removed, shorter ones are plain wall clock; and every one is
// scaled to the nominal host speed to the extent that its units were
// CPU-bound (see cputime.go).
func (b *bench) endToEnd(setup, speed float64) map[string]float64 {
	at := func(series string) float64 { return b.rec.scaled(series, b.speedShare(series), speed) }
	write := snap(nil)
	var payload float64
	if b.ing != nil {
		write = snap(b.ing.chain)
		payload = float64(b.ing.payload)
	}
	viewRows := len(b.expect("view", b.wantView))
	m := map[string]float64{
		"setup_s":                    setup,
		"smp_per_s":                  ratio(float64(b.nrows), at("epoch")),
		"first_batch_ms":             at("epoch_first") * 1e3,
		"open_ms":                    at("open") * 1e3,
		"scan_rows_per_s":            ratio(float64(b.nrows), at("scan")),
		"filter_ms":                  at("filter") * 1e3,
		"view_smp_per_s":             ratio(float64(viewRows), at("view_epoch")),
		"commit_ms":                  at("commit") * 1e3,
		"stored_bytes_per_user_byte": ratio(float64(write[cBytesWritten]), payload),
		"origin_req_per_ksmp":        ratio(float64(b.read.requests()+write.requests()), float64(b.samples)) * 1e3,
	}
	if b.w.rows == 0 {
		// The workload's data path is the write path: rows per second from
		// Create to the end of the final Flush.
		m["smp_per_s"] = ratio(float64(b.ing.rows), b.ingestSeconds)
	}
	return m
}
