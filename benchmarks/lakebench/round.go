package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataloader"
	"repro/internal/storage"
	"repro/internal/tql"
	"repro/internal/view"
)

// phase is one kind of user-visible operation a round performs.
type phase int

const (
	// phOpen opens the dataset, through a fresh chain on cold workloads.
	phOpen phase = iota
	// phEpoch streams one shuffled epoch of every field of every row.
	phEpoch
	// phScan runs Q_scan, the data-touching full scan.
	phScan
	// phQueries runs Q_filter, Q_push and Q_group once each.
	phQueries
	// phView runs the view query and streams one epoch of the sparse view.
	phView
	// phIngest appends ingestRows rows and commits.
	phIngest
)

type step struct {
	ph phase
	n  int
}

// workload is one configuration of the round: which dataset, behind which
// chain, cold or warm, and how often each phase runs per round. The phase
// mix is what makes one layer or another dominate.
type workload struct {
	name string
	kind dataKind
	// rows sizes the dataset built during set-up; 0 means the workload
	// reads back the dataset it ingests.
	rows int
	read chainSpec
	// loaderBudget is dataloader.Options.MemoryBudget; 0 keeps the default.
	loaderBudget int64
	// cold gives every Open a fresh chain, so nothing is cached.
	cold bool
	// prologue, sized from the time budget, runs once before the rounds.
	prologue func(seconds float64) []step
	// plan is one round. budgetPerRound is how many seconds of the budget
	// buy one round (the command runs at least three): about what a round takes on
	// the builder's 2-core host, plus its share of the prologue. The number
	// of rounds is fixed from the budget, not cut off by a deadline, so that
	// every count-based metric repeats exactly; the timed pass then lasts
	// about the budget.
	plan           []step
	budgetPerRound float64
}

const (
	// speedBurst is how often the reference operation runs in a row where
	// the CPU may have gone cold (after a wait for S3) or the allocator slow
	// (after a collection): the first few of a burst are slow and the lower
	// quartile of all samples ignores them.
	speedBurst   = 16
	batchSize    = 32
	ingestRows   = 200
	flushWorkers = 8
	mib          = 1 << 20
)

var workloads = []workload{
	{
		name: "train_decode", kind: dImg, rows: 4000,
		read:           chainSpec{lruBytes: 1 << 30},
		plan:           interleaved([]step{{phOpen, 40}, {phQueries, 4}, {phIngest, 2}}, phEpoch, phEpoch, phEpoch, phScan, phView),
		budgetPerRound: 3.9,
	},
	{
		name: "stream_s3", kind: dFrames, rows: 3072,
		read:         chainSpec{s3: true, lruBytes: 16 * mib, resilient: true},
		loaderBudget: 16 * mib, cold: true,
		plan:           []step{{phOpen, 3}, {phEpoch, 1}, {phScan, 1}, {phQueries, 10}, {phView, 1}, {phIngest, 1}},
		budgetPerRound: 4,
	},
	{
		name: "tql_mixed", kind: dImg, rows: 4000,
		read: chainSpec{s3: true, lruBytes: 1 << 30, resilient: true}, cold: true,
		plan:           []step{{phOpen, 3}, {phScan, 1}, {phQueries, 20}, {phView, 1}, {phEpoch, 1}, {phIngest, 1}},
		budgetPerRound: 3.9,
	},
	{
		name: "ingest_commit", kind: dImg,
		read: chainSpec{s3: true, lruBytes: 1 << 30, resilient: true}, cold: true,
		// A step takes about 0.6 s and a read-back round about 2.8 s, so 0.7
		// steps and 0.18 rounds per budgeted second split the budget between
		// the ingest (14 commits at 20 s) and reading it back (4 rounds).
		prologue:       func(seconds float64) []step { return []step{{phIngest, max(2, int(0.7*seconds+0.5))}} },
		plan:           []step{{phOpen, 1}, {phEpoch, 1}, {phScan, 1}, {phQueries, 10}, {phView, 3}},
		budgetPerRound: 5.6,
	},
}

// interleaved is a round of the given long units with the burst of short
// ones before each. On the warm in-memory workload an Open takes 0.2 ms and a
// Commit 1 ms, and the host's disturbances (steal, a slower CPU) come in
// spells of about a second: ten opens in a row at one point of the round
// were all inside a spell or all outside it, and the lower quartile of five
// such points spread 16-21 % between identical runs on the driver's host.
// Twenty-five bursts spread over the pass sample the host at twenty-five
// moments instead.
func interleaved(burst []step, long ...phase) []step {
	var plan []step
	for _, ph := range long {
		plan = append(append(plan, burst...), step{ph, 1})
	}
	return plan
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// scale multiplies dataset and ingest-step sizes, noSim replaces the
	// real-time S3 model with plain memory and minRounds is the least number
	// of rounds (3 from the command line); the go test smoke sets them.
	scale     float64
	noSim     bool
	minRounds int
	// setups is how often set-up is repeated for its median.
	setups int
	// dir receives trace-<workload>.json and the disk-tier scratch files.
	dir string
}

func (c runConfig) rowsOf(n int) int { return max(batchSize, int(float64(n)*c.scale)) }

// stepRows is how many rows one ingest step appends before it commits.
func (c runConfig) stepRows() int { return max(8, int(ingestRows*c.scale)) }

// counters is what one chain has done so far, in the terms the metrics use.
type counters [nCounters]int64

const (
	cGets = iota // whole-object origin reads
	cRangeGets
	cBatchGets   // batched origin reads: one request each
	cBatchRanges // ranges carried inside them
	cPuts
	cBytesRead
	cBytesWritten
	cLRUHits
	cLRUMisses
	cLRUCoalesced
	cLRUPrefetched
	cVerified
	cRetries
	cMetaGets
	cMetaPuts
	cMetaPutBytes
	cChunkReads
	nCounters
)

func snap(c *chain) (s counters) {
	if c == nil {
		return s
	}
	o := c.counting.Snapshot()
	s[cGets], s[cRangeGets], s[cBatchGets], s[cBatchRanges] = o.Gets, o.RangeGets, o.BatchGets, o.BatchRanges
	s[cPuts], s[cBytesRead], s[cBytesWritten] = o.Puts, o.BytesRead, o.BytesWritten
	if c.lru != nil {
		l := c.lru.Stats()
		s[cLRUHits], s[cLRUMisses], s[cLRUCoalesced], s[cLRUPrefetched] = l.Hits, l.Misses, l.Coalesced, l.Prefetched
	}
	if c.verify != nil {
		s[cVerified] = c.verify.Stats().Verified
	}
	if c.retry != nil {
		s[cRetries] = c.retry.Stats().Retries
	}
	s[cMetaGets], s[cMetaPuts], s[cMetaPutBytes] = c.m.metaGets.Load(), c.m.metaPuts.Load(), c.m.metaPutBytes.Load()
	s[cChunkReads] = c.m.chunkReads.Load()
	return s
}

// accumulate adds (now - base) to the receiver.
func (t *counters) accumulate(now, base counters) {
	for i := range t {
		t[i] += now[i] - base[i]
	}
}

// reads is the origin's read requests: Gets + RangeGets + BatchGets.
func (t counters) reads() int64 { return t[cGets] + t[cRangeGets] + t[cBatchGets] }

// requests is the origin request count the end-to-end ratio uses: reads
// plus Puts.
func (t counters) requests() int64 { return t.reads() + t[cPuts] }

// ingester owns the dataset a workload writes: a fresh dataset behind
// Counting -> origin, appended to ingestRows rows at a time with a Commit
// after each step.
type ingester struct {
	bytes   *storage.Memory
	chain   *chain
	ds      *core.Dataset
	tensors []*core.Tensor
	rows    int
	payload int64
}

// bench is the state of one pass over a workload's rounds: the warm-up pass
// and the measured pass each get their own.
type bench struct {
	w   *workload
	cfg runConfig
	tr  *tracer
	rec *recorder
	src *source

	// data holds the bytes the read phases read and nrows how many leading
	// generated rows it holds.
	data  *storage.Memory
	nrows int
	ing   *ingester

	chain *chain
	base  counters // the chain's counters when this pass adopted it
	read  counters // retired read chains, accumulated
	ds    *core.Dataset

	shuffles int64
	// samples counts rows delivered, scanned or ingested in this pass.
	samples int64
	// ingestSeconds runs from Create to the end of the final Flush.
	ingestSeconds float64

	// Trace-only tallies.
	scan         tql.ScanStats
	scanRequests int64
	pushRequests int64
	decodes      int64
	chunkEpochs  int64
	node         dataloader.NodeCacheStats

	want map[string][]uint64 // oracle results for the current nrows
}

func newBench(w *workload, cfg runConfig, tr *tracer, src *source, data *storage.Memory, nrows int) *bench {
	return &bench{w: w, cfg: cfg, tr: tr, rec: newRecorder(), src: src, data: data, nrows: nrows}
}

var errMismatch = errors.New("oracle mismatch")

func sameRows(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%w: %d rows, want %d", errMismatch, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%w: row %d is %d, want %d", errMismatch, i, got[i], want[i])
		}
	}
	return nil
}

// expect memoises the query oracles for the current row count.
func (b *bench) expect(name string, build func(n int) []uint64) []uint64 {
	key := fmt.Sprintf("%s/%d", name, b.nrows)
	if v, ok := b.want[key]; ok {
		return v
	}
	if b.want == nil {
		b.want = map[string][]uint64{}
	}
	v := build(b.nrows)
	b.want[key] = v
	return v
}

func (b *bench) wantView(n int) []uint64 { return b.src.wantLabelsBelow(n, viewBound) }

// retire folds the current read chain's counters into the pass totals.
func (b *bench) retire() {
	if b.chain != nil {
		now := snap(b.chain)
		b.read.accumulate(now, b.base)
		b.base = now
	}
}

func (b *bench) open(ctx context.Context) {
	if b.w.cold || b.chain == nil {
		b.retire()
		spec := b.w.read
		spec.s3 = spec.s3 && !b.cfg.noSim
		b.chain = newReadChain(b.data, spec, b.tr)
		b.base = counters{}
	}
	ctx, end := b.tr.start(ctx, "open")
	var (
		ds  *core.Dataset
		err error
	)
	b.rec.timeShort("open", func() { ds, err = core.Open(ctx, b.chain.top) })
	end()
	if err == nil && int(ds.NumRows()) != b.nrows {
		err = fmt.Errorf("%w: opened %d rows, want %d", errMismatch, ds.NumRows(), b.nrows)
	}
	b.rec.op("open", err)
	b.ds = ds
}

// hashBatch folds one delivered batch into the epoch's multiset hash. It
// reads the collated (Stacked) form where the loader produced one, so the
// collator's output is what gets checked, and the per-sample form otherwise.
func (b *bench) hashBatch(batch dataloader.Batch) (hash uint64) {
	for name, arr := range batch.Stacked {
		shape := arr.Shape()
		if len(shape) == 0 || shape[0] != len(batch.Samples) {
			continue // hash stays short: reported as a mismatch
		}
		data := arr.Bytes()
		size := len(data) / shape[0]
		for i := 0; i < shape[0]; i++ {
			hash += itemHash(b.src.hseed, name, shape[1:], data[i*size:(i+1)*size])
		}
	}
	for _, name := range batch.Unstacked {
		for _, s := range batch.Samples {
			if a := s[name]; a != nil {
				hash += itemHash(b.src.hseed, name, a.Shape(), a.Bytes())
			}
		}
	}
	return hash
}

// epoch streams one shuffled epoch of v (nil: every row of the dataset)
// through a fresh loader with API-default workers, readahead and shuffle
// buffer, draining batches as fast as one consumer can, and checks the
// delivered multiset against the generator. It records the series name
// (epoch seconds) and name_first (seconds to the first batch), both with
// steal removed.
func (b *bench) epoch(ctx context.Context, name string, v *view.View, sel []uint64) {
	b.shuffles++
	opts := dataloader.Options{BatchSize: batchSize, Shuffle: true, Seed: b.cfg.seed*1_000_003 + b.shuffles, MemoryBudget: b.w.loaderBudget}
	if v == nil {
		v = view.All(b.ds)
	}
	loader := dataloader.New(v, opts)
	ctx, end := b.tr.start(ctx, name)
	watch := startWatch()
	last := watch.begin
	var hash uint64
	rows := 0
	for batch := range loader.Batches(ctx) {
		now := time.Now()
		if rows == 0 {
			b.rec.addUnit(name+"_first", watch)
		}
		b.rec.addDuration("batch_wait", now.Sub(last))
		b.tr.record(ctx, "batch_wait", last, now)
		hash += b.hashBatch(batch)
		rows += len(batch.Samples)
		last = time.Now()
	}
	b.rec.addUnit(name, watch)
	end()
	err := loader.Err()
	if err == nil && (rows != len(sel) || hash != b.src.epochHash(sel)) {
		err = fmt.Errorf("%w: %s delivered %d rows (hash %x), want %d (hash %x)", errMismatch, name, rows, hash, len(sel), b.src.epochHash(sel))
	}
	b.rec.op(name, err)
	b.samples += int64(rows)

	b.decodes += loader.CacheDecodes()
	b.chunkEpochs += int64(b.chunksHolding(sel))
	ns := loader.Cache().Stats()
	b.node.Hits += ns.Hits
	b.node.Misses += ns.Misses
	b.node.Evictions += ns.Evictions
	b.node.Coalesced += ns.Coalesced
}

// chunksHolding counts, over every field, the chunks that hold at least one
// of the selected rows (sel is ascending).
func (b *bench) chunksHolding(sel []uint64) int {
	total := 0
	for _, f := range b.src.fields {
		t := b.ds.Tensor(f.name)
		if t == nil {
			continue
		}
		i := 0
		for _, sp := range t.ChunkSpans() {
			for i < len(sel) && sel[i] < sp.First {
				i++
			}
			if i < len(sel) && sel[i] <= sp.Last {
				total++
			}
		}
	}
	return total
}

// query runs one TQL statement, records its wall clock in the series name,
// and checks its exact row ids.
func (b *bench) query(ctx context.Context, name, src string, opts tql.Options, want []uint64) *view.View {
	ctx, end := b.tr.start(ctx, "query."+name)
	var (
		v   *view.View
		err error
	)
	b.rec.timeShort(name, func() { v, err = tql.RunWith(ctx, b.ds, src, opts) })
	end()
	if err == nil {
		err = sameRows(v.Indices(), want)
	}
	b.rec.op("query."+name, err)
	return v
}

func (b *bench) runPhase(ctx context.Context, ph phase) {
	if b.ds == nil && ph != phOpen && ph != phIngest {
		b.rec.op("phase without an open dataset", errors.New("open failed earlier"))
		return
	}
	scanQ, filterQ, pushQ, groupQ, viewQ := b.src.queries()
	switch ph {
	case phOpen:
		b.open(ctx)
	case phEpoch:
		b.epoch(ctx, "epoch", nil, b.expect("all", allRows))
	case phScan:
		before := b.chain.counting.Requests()
		watch := startWatch()
		b.query(ctx, "scan_query", scanQ, tql.Options{Stats: &b.scan}, b.expect("scan", b.src.wantScan))
		b.rec.addUnit("scan", watch)
		b.scanRequests += b.chain.counting.Requests() - before
		b.samples += int64(b.nrows)
	case phQueries:
		b.query(ctx, "filter", filterQ, tql.Options{}, b.expect("filter", b.src.wantFilter))
		before := b.chain.counting.Requests()
		b.query(ctx, "push", pushQ, tql.Options{}, b.expect("all", allRows))
		b.pushRequests += b.chain.counting.Requests() - before
		b.query(ctx, "group", groupQ, tql.Options{}, b.expect("group", b.src.wantGroup))
	case phView:
		sel := b.expect("view", b.wantView)
		v := b.query(ctx, "view", viewQ, tql.Options{}, sel)
		if v == nil {
			return
		}
		if b.chain.touched != nil {
			b.chain.touched.reset()
		}
		b.epoch(ctx, "view_epoch", v, sel)
		if b.chain.touched != nil {
			b.rec.add("view_touch_ratio", ratio(float64(b.chain.touched.len()), float64(b.chunksHolding(sel))))
		}
	case phIngest:
		b.ingestStep(ctx)
	}
}

// ingestStep appends ingestRows rows (per row, in field order) and commits.
func (b *bench) ingestStep(ctx context.Context) {
	begin := time.Now()
	defer func() { b.ingestSeconds += time.Since(begin).Seconds() }()
	if b.ing == nil {
		ing := &ingester{bytes: storage.NewMemory()}
		ing.chain = newWriteChain(ing.bytes, b.w.read.s3 && !b.cfg.noSim, b.tr)
		var err error
		ing.ds, ing.tensors, err = b.src.createDataset(ctx, ing.chain.top)
		b.rec.op("create", err)
		if err != nil {
			return
		}
		b.ing = ing
	}
	ing := b.ing
	for i := 0; i < b.cfg.stepRows(); i++ {
		r := &b.src.rows[ing.rows%len(b.src.rows)]
		rctx, end := b.tr.start(ctx, "append")
		t0 := time.Now()
		err := b.src.appendRow(rctx, ing.tensors, r)
		b.rec.addDuration("append", time.Since(t0))
		end()
		b.rec.op("append", err)
		if err != nil {
			return
		}
		ing.rows++
		ing.payload += r.payload
	}
	before := ing.chain.counting.Snapshot()
	cctx, end := b.tr.start(ctx, "commit")
	var err error
	b.rec.timeShort("commit", func() { _, err = ing.ds.Commit(cctx, fmt.Sprintf("step at %d rows", ing.rows)) })
	end()
	after := ing.chain.counting.Snapshot()
	b.rec.op("commit", err)
	b.rec.add("commit_puts", float64(after.Puts-before.Puts))
	b.rec.add("commit_bytes", float64(after.BytesWritten-before.BytesWritten))
	b.samples += int64(b.cfg.stepRows())
	if b.w.rows == 0 {
		// The workload reads back what it has committed so far.
		b.data, b.nrows = ing.bytes, ing.rows
	}
}

// finishIngest is the final Flush, part of the timed ingest.
func (b *bench) finishIngest(ctx context.Context) {
	if b.ing == nil {
		return
	}
	fctx, end := b.tr.start(ctx, "flush")
	t0 := time.Now()
	err := b.ing.ds.Flush(fctx)
	d := time.Since(t0)
	end()
	b.rec.op("flush", err)
	b.rec.addDuration("flush", d)
	b.ingestSeconds += d.Seconds()
}

// verifyIngest, untimed, reads the ingested dataset back straight from its
// bytes — every field of every row against the generator — and requires
// Fsck to find nothing.
func (b *bench) verifyIngest(ctx context.Context) {
	if b.ing == nil {
		return
	}
	cfg := b.cfg
	cfg.noSim = true // the check reads the bytes without the S3 cost model
	check := newBench(b.w, cfg, nil, b.src, b.ing.bytes, b.ing.rows)
	check.open(ctx)
	if check.ds != nil {
		check.epoch(ctx, "read_back", nil, allRows(b.ing.rows))
	}
	report, err := core.Fsck(ctx, b.ing.bytes, core.FsckOptions{})
	if err == nil && !report.Clean() {
		err = fmt.Errorf("fsck: %s", report.Format())
	}
	check.rec.op("fsck", err)
	b.rec.absorb(check.rec)
}

// steps performs a list of steps once; with warm set every phase runs once
// only, however often the list names it. A forced collection before every
// long unit (and before every run of short ones) makes each start from a
// collected heap: without it, whether a 3 ms query or a 1 s scan shares the
// CPUs with the collection of the previous phase's garbage is a coin toss,
// and medians of five or six units flip between the two cases (Q_push and
// Q_group medians spread 40 %).
func (b *bench) steps(ctx context.Context, steps []step, warm bool) {
	ctx = b.tr.rootContext(ctx)
	var warmed [phIngest + 1]bool
	for _, s := range steps {
		n := s.n
		if warm {
			if warmed[s.ph] {
				continue
			}
			warmed[s.ph], n = true, 1
		}
		long := s.ph == phEpoch || s.ph == phScan || s.ph == phView
		for i := 0; i < n; i++ {
			// The host's speed is sampled where the units are, before and
			// after each: a couple of samples between the repeats of a short
			// unit, a burst where the CPU may be cold.
			samples := 2
			if long || i == 0 {
				runtime.GC()
				samples = speedBurst
			}
			b.rec.sampleSpeed(samples)
			b.runPhase(ctx, s.ph)
			b.rec.sampleSpeed(samples)
		}
	}
}

func (b *bench) prologue() []step {
	if b.w.prologue == nil {
		return nil
	}
	return b.w.prologue(b.cfg.seconds)
}

// warmUp runs every phase once, untimed.
func (b *bench) warmUp(ctx context.Context) {
	b.steps(ctx, b.prologue(), true)
	b.steps(ctx, b.w.plan, true)
	b.finishIngest(ctx)
}

// run is the timed pass: the prologue, the rounds the budget buys, and the
// final Flush.
func (b *bench) run(ctx context.Context) time.Duration {
	begin := time.Now()
	b.steps(ctx, b.prologue(), false)
	var rounds samples
	for r := 0; r < max(b.cfg.minRounds, int(b.cfg.seconds/b.w.budgetPerRound+0.5)); r++ {
		t0 := time.Now()
		b.steps(ctx, b.w.plan, false)
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	b.finishIngest(ctx)
	b.retire()
	b.rec.series["round"] = rounds
	return time.Since(begin)
}
