package main

import (
	"context"
	"fmt"
	"hash/maphash"
	"runtime"
	"sort"
	"sync"

	"repro/internal/chunk"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
	synth "repro/internal/workload"
)

// dataKind selects one of the two generated datasets.
type dataKind int

const (
	// dImg is the ISSUE's D_img: JPEG 64x64x3 images, lz4-chunked uint8
	// masks, class labels and 4x4 float32 boxes.
	dImg dataKind = iota
	// dFrames is stream_s3's dataset: raw uint8 74x74x3 frames (16 KiB,
	// no compression anywhere) plus class labels.
	dFrames
)

const (
	imgSide    = 64
	frameSide  = 74
	numClasses = 1000
	// viewBound selects the sparse view: rows with labels < viewBound.
	viewBound = 250
	// filterBound and filterLimit define Q_filter.
	filterBound = 100
	filterLimit = 20
)

// chunkBounds is the chunk sizing every tensor uses: 128/256/512 KiB, so a
// few thousand rows already span hundreds of chunk objects.
var chunkBounds = chunk.Bounds{Min: 128 << 10, Target: 256 << 10, Max: 512 << 10}

// field is one tensor of a generated dataset.
type field struct {
	name string
	spec core.TensorSpec
	// encoded marks tensors appended through AppendEncoded (media bytes go
	// in as they are); all others go through Append.
	encoded bool
}

func fieldsOf(kind dataKind) []field {
	if kind == dFrames {
		return []field{
			{name: "frames", spec: core.TensorSpec{Name: "frames", Htype: "generic", Dtype: tensor.UInt8, ChunkCompression: "none", Bounds: chunkBounds}},
			{name: "labels", spec: core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: chunkBounds}},
		}
	}
	return []field{
		{name: "images", encoded: true, spec: core.TensorSpec{Name: "images", Htype: "image", SampleCompression: "jpeg", Bounds: chunkBounds}},
		{name: "masks", spec: core.TensorSpec{Name: "masks", Htype: "generic", Dtype: tensor.UInt8, ChunkCompression: "lz4", Bounds: chunkBounds}},
		{name: "labels", spec: core.TensorSpec{Name: "labels", Htype: "class_label", Bounds: chunkBounds}},
		{name: "boxes", spec: core.TensorSpec{Name: "boxes", Htype: "bbox", Bounds: chunkBounds}},
	}
}

// genRow is one generated row: what is handed to the engine (in field
// order) and what the oracles expect back.
type genRow struct {
	// encoded is the media payload of the first field when it is appended
	// pre-encoded (D_img's JPEG); nil otherwise.
	encoded []byte
	// arrays holds the appended value of every non-encoded field, indexed
	// like fieldsOf; the encoded field's slot is nil.
	arrays []*tensor.NDArray
	// pixels is the decoded form of the primary field, kept for the layer
	// replay (JPEG decode output, or the raw frame).
	pixels *tensor.NDArray
	label  int
	// mean is MEAN(primary) as the engine must compute it.
	mean float64
	// hash is the order-independent sum of the row's (field, shape, bytes)
	// item hashes as a loader must deliver them.
	hash uint64
	// payload is the byte count handed to Append/AppendEncoded.
	payload int64
}

// source is one generated dataset plus everything its oracles need. It is
// built from the seed alone and never reads anything back from the engine.
type source struct {
	kind   dataKind
	fields []field
	rows   []genRow
	// scanThreshold is Q_scan's t: the midpoint of the widest gap between
	// neighbouring sample means around the median, so no mean equals it.
	scanThreshold float64
	hseed         maphash.Seed
}

func (s *source) primary() string { return s.fields[0].name }

// splitmix64 is the per-row stream: row i of seed s is a pure function of
// (s, i), so rows can be generated in any order and in parallel.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) float() float64 { return float64(s.next()>>11) / (1 << 53) }

func rowStream(seed int64, i int) splitmix64 {
	s := splitmix64(uint64(seed)*0x2545f4914f6cdd1d + uint64(i)*0x9e3779b97f4a7c15)
	s.next()
	return s
}

type blob struct{ cx, cy, r2, amp float64 }

// synthImage draws a 64x64x3 image (base colour, linear gradient, a few
// soft blobs, mild noise) and the matching 64x64 segmentation mask (0 =
// background, k = inside blob k). It is a cheaper cousin of
// workload.ImageSpec.Image — no per-pixel exp or math/rand — so that a few
// thousand rows generate in well under a second; JPEG still compresses it
// at a realistic ~10:1.
func synthImage(rng *splitmix64) (img, mask []byte) {
	const n = imgSide
	img = make([]byte, n*n*3)
	mask = make([]byte, n*n)
	gx, gy := rng.float()*2-1, rng.float()*2-1
	base := [3]float64{rng.float() * 255, rng.float() * 255, rng.float() * 255}
	blobs := make([]blob, 2+rng.next()%3)
	for b := range blobs {
		r := (0.08 + rng.float()*0.22) * n
		blobs[b] = blob{cx: rng.float() * n, cy: rng.float() * n, r2: r * r, amp: rng.float()*160 - 80}
	}
	noise := rng.next()
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			v := 60 * (gx*float64(x) + gy*float64(y)) / n
			for k, b := range blobs {
				dx, dy := float64(x)-b.cx, float64(y)-b.cy
				if d2 := dx*dx + dy*dy; d2 < b.r2 {
					f := 1 - d2/b.r2
					v += b.amp * f * f
					mask[y*n+x] = byte(k + 1)
				}
			}
			noise ^= noise << 13
			noise ^= noise >> 7
			noise ^= noise << 17
			v += float64(noise&7) - 3.5
			for c := 0; c < 3; c++ {
				f := base[c] + v
				if f < 0 {
					f = 0
				} else if f > 255 {
					f = 255
				}
				img[(y*n+x)*3+c] = byte(f)
			}
		}
	}
	return img, mask
}

// synthFrame draws a raw 74x74x3 frame: a per-row base level plus noise, so
// MEAN(frames) spreads over the whole uint8 range.
func synthFrame(rng *splitmix64) []byte {
	out := make([]byte, frameSide*frameSide*3)
	base := rng.next() % 224
	x := rng.next() | 1
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(base + x&31)
	}
	return out
}

// itemHash hashes one delivered (field, shape, bytes) item.
func itemHash(seed maphash.Seed, name string, shape []int, data []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	h.WriteString(name)
	for _, d := range shape {
		h.WriteByte(byte(d))
		h.WriteByte(byte(d >> 8))
	}
	h.WriteByte(0xff)
	h.Write(data)
	return h.Sum64()
}

func byteMean(b []byte) float64 {
	var sum uint64
	for _, v := range b {
		sum += uint64(v)
	}
	// Sums of uint8 are exact in float64, so any summation order the engine
	// uses gives this same quotient.
	return float64(sum) / float64(len(b))
}

// generate builds n rows of the given kind from seed, fanning the per-row
// work (image synthesis, JPEG encode, the oracle's JPEG decode) out over
// GOMAXPROCS goroutines.
func generate(kind dataKind, seed int64, n int) (*source, error) {
	jpeg, err := compress.SampleByName("jpeg")
	if err != nil {
		return nil, err
	}
	s := &source{kind: kind, fields: fieldsOf(kind), rows: make([]genRow, n), hseed: maphash.MakeSeed()}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := s.genRow(jpeg, seed, i); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	s.scanThreshold = pickThreshold(s.rows)
	return s, nil
}

func (s *source) genRow(jpeg compress.SampleCodec, seed int64, i int) error {
	rng := rowStream(seed, i)
	r := &s.rows[i]
	r.arrays = make([]*tensor.NDArray, len(s.fields))
	r.label = int(synth.Label(seed, i, numClasses).Float64s()[0])
	label := tensor.Scalar(tensor.Int32, float64(r.label))
	var err error
	switch s.kind {
	case dImg:
		img, mask := synthImage(&rng)
		if r.encoded, err = jpeg.Encode(img, imgSide, imgSide, 3); err != nil {
			return err
		}
		// The oracle decodes the generator's JPEG with the same codec the
		// engine uses; it never sees a byte the engine produced.
		pix, h, w, c, err := jpeg.Decode(r.encoded)
		if err != nil {
			return err
		}
		if r.pixels, err = tensor.FromBytes(tensor.UInt8, []int{h, w, c}, pix); err != nil {
			return err
		}
		if r.arrays[1], err = tensor.FromBytes(tensor.UInt8, []int{imgSide, imgSide}, mask); err != nil {
			return err
		}
		r.arrays[2] = label
		r.arrays[3] = synth.BBoxes(seed, i, 4, imgSide, imgSide)
		r.payload = int64(len(r.encoded))
	case dFrames:
		if r.pixels, err = tensor.FromBytes(tensor.UInt8, []int{frameSide, frameSide, 3}, synthFrame(&rng)); err != nil {
			return err
		}
		r.arrays[0] = r.pixels
		r.arrays[1] = label
	}
	r.mean = byteMean(r.pixels.Bytes())
	for f, fd := range s.fields {
		a := r.arrays[f]
		if a == nil {
			a = r.pixels
		} else {
			r.payload += int64(a.NumBytes())
		}
		r.hash += itemHash(s.hseed, fd.name, a.Shape(), a.Bytes())
	}
	return nil
}

// pickThreshold returns the midpoint of the widest gap between neighbouring
// means in the middle 40% of the sorted means.
func pickThreshold(rows []genRow) float64 {
	means := make([]float64, len(rows))
	for i, r := range rows {
		means[i] = r.mean
	}
	sort.Float64s(means)
	lo, hi := len(means)*3/10, len(means)*7/10
	best, t := -1.0, means[len(means)/2]+0.5
	for i := lo; i+1 < len(means) && i < hi; i++ {
		if gap := means[i+1] - means[i]; gap > best {
			best, t = gap, (means[i]+means[i+1])/2
		}
	}
	return t
}

// appendRow hands row r to the dataset's tensors in field order.
func (s *source) appendRow(ctx context.Context, tensors []*core.Tensor, r *genRow) error {
	for f, t := range tensors {
		var err error
		if s.fields[f].encoded {
			err = t.AppendEncoded(ctx, r.encoded)
		} else {
			err = t.Append(ctx, r.arrays[f])
		}
		if err != nil {
			return fmt.Errorf("append %s: %w", s.fields[f].name, err)
		}
	}
	return nil
}

// createDataset creates the dataset "bench" on store with the write
// pipeline every workload uses (FlushWorkers: 8) and the source's tensors.
func (s *source) createDataset(ctx context.Context, store storage.Provider) (*core.Dataset, []*core.Tensor, error) {
	ds, err := core.Create(ctx, store, "bench")
	if err != nil {
		return nil, nil, err
	}
	if err := ds.SetWriteOptions(core.WriteOptions{FlushWorkers: flushWorkers}); err != nil {
		return nil, nil, err
	}
	tensors := make([]*core.Tensor, len(s.fields))
	for f, fd := range s.fields {
		if tensors[f], err = ds.CreateTensor(ctx, fd.spec); err != nil {
			return nil, nil, err
		}
	}
	return ds, tensors, nil
}

// Oracles. Each takes n, the number of leading generated rows the dataset
// under test holds (ingest_commit reads its dataset back while it grows).

// epochHash is the multiset hash a loader epoch over the given row
// selection must deliver. Row ids wrap around the generated rows, as the
// ingester does when a pass ingests more rows than were generated.
func (s *source) epochHash(sel []uint64) (hash uint64) {
	for _, i := range sel {
		hash += s.rows[int(i)%len(s.rows)].hash
	}
	return hash
}

func allRows(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i)
	}
	return out
}

// wantScan is Q_scan's exact result: rows whose primary mean exceeds t.
func (s *source) wantScan(n int) []uint64 {
	var out []uint64
	for i := 0; i < n; i++ {
		if s.rows[i].mean > s.scanThreshold {
			out = append(out, uint64(i))
		}
	}
	return out
}

// wantLabelsBelow is the sparse view's selection, in row order.
func (s *source) wantLabelsBelow(n, bound int) []uint64 {
	var out []uint64
	for i := 0; i < n; i++ {
		if s.rows[i].label < bound {
			out = append(out, uint64(i))
		}
	}
	return out
}

// byLabel stably sorts a selection by label, the engine's ORDER BY / GROUP
// BY contract.
func (s *source) byLabel(sel []uint64) []uint64 {
	sort.SliceStable(sel, func(a, b int) bool { return s.rows[sel[a]].label < s.rows[sel[b]].label })
	return sel
}

// wantFilter is Q_filter's exact ordered result.
func (s *source) wantFilter(n int) []uint64 {
	out := s.byLabel(s.wantLabelsBelow(n, filterBound))
	if len(out) > filterLimit {
		out = out[:filterLimit]
	}
	return out
}

// wantGroup is Q_group's exact ordered result.
func (s *source) wantGroup(n int) []uint64 { return s.byLabel(allRows(n)) }

// Query strings. The dataset is always named "bench".
func (s *source) queries() (scan, filter, push, group, view string) {
	side := imgSide
	if s.kind == dFrames {
		side = frameSide
	}
	p := s.primary()
	return fmt.Sprintf("SELECT * FROM bench WHERE MEAN(%s) > %.6f", p, s.scanThreshold),
		fmt.Sprintf("SELECT * FROM bench WHERE labels < %d ORDER BY labels LIMIT %d", filterBound, filterLimit),
		fmt.Sprintf("SELECT * FROM bench WHERE SHAPE(%s)[0] == %d", p, side),
		"SELECT * FROM bench GROUP BY labels",
		fmt.Sprintf("SELECT * FROM bench WHERE labels < %d", viewBound)
}
