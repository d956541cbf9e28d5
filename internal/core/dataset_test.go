package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/storage"
	"repro/internal/tensor"
)

func newTestDataset(t *testing.T) (*Dataset, *storage.Memory) {
	t.Helper()
	store := storage.NewMemory()
	ds, err := Create(context.Background(), store, "test")
	if err != nil {
		t.Fatal(err)
	}
	return ds, store
}

// smallBounds keeps chunks tiny so tests exercise multi-chunk layouts.
var smallBounds = chunk.Bounds{Min: 64, Target: 128, Max: 256}

func TestCreateAndOpen(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	if ds.Name() != "test" || ds.Branch() != "main" {
		t.Fatalf("name=%q branch=%q", ds.Name(), ds.Branch())
	}
	if _, err := Create(ctx, store, "again"); err == nil {
		t.Fatal("double create should error")
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	back, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "test" {
		t.Fatalf("reopened name = %q", back.Name())
	}
	if _, err := Open(ctx, storage.NewMemory()); err == nil {
		t.Fatal("open on empty store should error")
	}
}

func TestCreateTensorValidation(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels"}); err == nil {
		t.Fatal("duplicate tensor should error")
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: ""}); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Htype: "martian"}); err == nil {
		t.Fatal("unknown htype should error")
	}
}

func TestHtypeDefaultsApplied(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	img, err := ds.CreateTensor(ctx, TensorSpec{Name: "images", Htype: "image"})
	if err != nil {
		t.Fatal(err)
	}
	if img.Meta().SampleCompression != "jpeg" {
		t.Fatalf("image sample compression = %q", img.Meta().SampleCompression)
	}
	lbl, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label"})
	if err != nil {
		t.Fatal(err)
	}
	if lbl.Meta().ChunkCompression != "lz4" {
		t.Fatalf("label chunk compression = %q", lbl.Meta().ChunkCompression)
	}
	if lbl.Dtype() != tensor.Int32 {
		t.Fatalf("label dtype = %v", lbl.Dtype())
	}
}

func TestAppendAndReadSmallTensor(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	labels, err := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label", Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := labels.Append(ctx, tensor.Scalar(tensor.Int32, float64(i%7))); err != nil {
			t.Fatal(err)
		}
	}
	if labels.Len() != 100 {
		t.Fatalf("len = %d", labels.Len())
	}
	// Reads served partly from pending buffer, partly from chunks.
	for i := 0; i < 100; i++ {
		arr, err := labels.At(ctx, uint64(i))
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
		v, _ := arr.Item()
		if v != float64(i%7) {
			t.Fatalf("At(%d) = %v, want %d", i, v, i%7)
		}
	}
	if labels.NumChunks() < 2 {
		t.Fatalf("expected multiple chunks under small bounds, got %d", labels.NumChunks())
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	ctx := context.Background()
	ds, store := newTestDataset(t)
	vals, err := ds.CreateTensor(ctx, TensorSpec{Name: "vals", Dtype: tensor.Float64, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		arr, _ := tensor.FromFloat64s(tensor.Float64, []int{3}, []float64{float64(i), float64(i * 2), float64(i * 3)})
		if err := vals.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	back, err := Open(ctx, store)
	if err != nil {
		t.Fatal(err)
	}
	vt := back.Tensor("vals")
	if vt == nil || vt.Len() != 50 {
		t.Fatalf("reopened tensor = %v", vt)
	}
	arr, err := vt.At(ctx, 49)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(arr.Float64s(), []float64{49, 98, 147}) {
		t.Fatalf("At(49) = %v", arr.Float64s())
	}
	shape, err := vt.Shape(10)
	if err != nil || !reflect.DeepEqual(shape, []int{3}) {
		t.Fatalf("Shape(10) = %v, %v", shape, err)
	}
}

func TestDynamicShapesInOneTensor(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	tr, err := ds.CreateTensor(ctx, TensorSpec{Name: "ragged", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	shapes := [][]int{{2, 3}, {5}, {1, 1, 1}, {4, 2}}
	for i, s := range shapes {
		arr := tensor.MustNew(tensor.Int32, s...)
		arr.SetAt(float64(i), make([]int, len(s))...)
		if err := tr.Append(ctx, arr); err != nil {
			t.Fatal(err)
		}
	}
	for i, s := range shapes {
		arr, err := tr.At(ctx, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(arr.Shape(), s) {
			t.Fatalf("sample %d shape = %v, want %v", i, arr.Shape(), s)
		}
		got, err := tr.Shape(uint64(i))
		if err != nil || !reflect.DeepEqual(got, s) {
			t.Fatalf("shape encoder sample %d = %v, %v", i, got, err)
		}
	}
}

func TestImageTensorJPEGRoundTrip(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	img, err := ds.CreateTensor(ctx, TensorSpec{Name: "images", Htype: "image"})
	if err != nil {
		t.Fatal(err)
	}
	// A smooth gradient image JPEG handles well.
	h, w := 32, 32
	pix := make([]byte, h*w*3)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pix[(y*w+x)*3] = byte(x * 8)
			pix[(y*w+x)*3+1] = byte(y * 8)
			pix[(y*w+x)*3+2] = 128
		}
	}
	arr, _ := tensor.FromBytes(tensor.UInt8, []int{h, w, 3}, pix)
	if err := img.Append(ctx, arr); err != nil {
		t.Fatal(err)
	}
	got, err := img.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Shape(), []int{h, w, 3}) {
		t.Fatalf("decoded shape = %v", got.Shape())
	}
	// Lossy: bounded error.
	var sum float64
	for i := range pix {
		d := float64(pix[i]) - got.Float64s()[i]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	if mae := sum / float64(len(pix)); mae > 15 {
		t.Fatalf("jpeg mae = %.2f", mae)
	}
	// Wrong dtype/shape rejected by htype.
	if err := img.Append(ctx, tensor.MustNew(tensor.Float32, 4, 4, 3)); err == nil {
		t.Fatal("float image should be rejected")
	}
}

func TestAppendEncodedDirectCopy(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	img, err := ds.CreateTensor(ctx, TensorSpec{Name: "images", Htype: "image"})
	if err != nil {
		t.Fatal(err)
	}
	// Encode a JPEG out-of-band, then ingest the raw bytes.
	src := tensor.MustNew(tensor.UInt8, 16, 24, 3)
	sample, err := img.encodeSample(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := img.AppendEncoded(ctx, sample.Data); err != nil {
		t.Fatal(err)
	}
	shape, err := img.Shape(0)
	if err != nil || !reflect.DeepEqual(shape, []int{16, 24, 3}) {
		t.Fatalf("sniffed shape = %v, %v", shape, err)
	}
	// Stored bytes must be the exact input (no recode).
	raw, _, err := img.RawAt(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(sample.Data) {
		t.Fatal("AppendEncoded must copy bytes verbatim")
	}
	if err := img.AppendEncoded(ctx, []byte("not an image")); err == nil {
		t.Fatal("garbage media should error")
	}
	lbl, _ := ds.CreateTensor(ctx, TensorSpec{Name: "labels", Htype: "class_label"})
	if err := lbl.AppendEncoded(ctx, sample.Data); err == nil {
		t.Fatal("AppendEncoded on uncompressed tensor should error")
	}
}

func TestGroups(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	g := ds.Group("camera")
	if _, err := g.CreateTensor(ctx, TensorSpec{Name: "rgb", Htype: "image"}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.CreateTensor(ctx, TensorSpec{Name: "depth", Dtype: tensor.Float32}); err != nil {
		t.Fatal(err)
	}
	if ds.Tensor("camera/rgb") == nil {
		t.Fatal("grouped tensor not addressable by full name")
	}
	if g.Tensor("rgb") == nil {
		t.Fatal("grouped tensor not addressable via group")
	}
	if got := g.Tensors(); !reflect.DeepEqual(got, []string{"depth", "rgb"}) {
		t.Fatalf("group tensors = %v", got)
	}
}

func TestHiddenTensorsExcludedFromListing(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "x", Dtype: tensor.Int32}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "_shadow", Dtype: tensor.Int32, Hidden: true}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Tensors(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Fatalf("Tensors = %v", got)
	}
	if got := ds.AllTensors(); len(got) != 2 {
		t.Fatalf("AllTensors = %v", got)
	}
}

func TestRowAppendAssignsSampleIDs(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "a", Dtype: tensor.Int32}); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.CreateTensor(ctx, TensorSpec{Name: "b", Dtype: tensor.Int32}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		err := ds.Append(ctx, map[string]*tensor.NDArray{
			"a": tensor.Scalar(tensor.Int32, float64(i)),
			"b": tensor.Scalar(tensor.Int32, float64(i*10)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if ds.NumRows() != 3 {
		t.Fatalf("rows = %d", ds.NumRows())
	}
	ids := ds.Tensor(SampleIDTensor)
	if ids == nil || ids.Len() != 3 {
		t.Fatal("sample id tensor missing or wrong length")
	}
	v, _ := ids.At(ctx, 2)
	if id, _ := v.Item(); id != 2 {
		t.Fatalf("sample id 2 = %v", id)
	}
	if err := ds.Append(ctx, map[string]*tensor.NDArray{"zzz": tensor.Scalar(tensor.Int32, 0)}); err == nil {
		t.Fatal("append to unknown tensor should error")
	}
}

func TestSequenceTensor(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	seq, err := ds.CreateTensor(ctx, TensorSpec{Name: "frames", Htype: "sequence[generic]", Dtype: tensor.Int32, Bounds: smallBounds})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2, 3}, {4}, {}, {5, 6}}
	for _, row := range rows {
		items := make([]*tensor.NDArray, len(row))
		for i, v := range row {
			items[i] = tensor.Scalar(tensor.Int32, v)
		}
		if err := seq.AppendSequence(ctx, items); err != nil {
			t.Fatal(err)
		}
	}
	if seq.Len() != 4 {
		t.Fatalf("sequence rows = %d", seq.Len())
	}
	for i, row := range rows {
		items, err := seq.SequenceAt(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(row) {
			t.Fatalf("row %d has %d items, want %d", i, len(items), len(row))
		}
		for j, v := range row {
			got, _ := items[j].Item()
			if got != v {
				t.Fatalf("row %d item %d = %v, want %v", i, j, got, v)
			}
		}
		n, err := seq.SequenceLen(i)
		if err != nil || n != len(row) {
			t.Fatalf("SequenceLen(%d) = %d, %v", i, n, err)
		}
	}
	// At on a sequence row stacks items of equal shape.
	stacked, err := seq.At(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stacked.Shape(), []int{3}) {
		t.Fatalf("stacked shape = %v", stacked.Shape())
	}
	// Wrong-API guards.
	if err := seq.Append(ctx, tensor.Scalar(tensor.Int32, 1)); err == nil {
		t.Fatal("Append on sequence tensor should error")
	}
	plain, _ := ds.CreateTensor(ctx, TensorSpec{Name: "plain", Dtype: tensor.Int32})
	if err := plain.AppendSequence(ctx, nil); err == nil {
		t.Fatal("AppendSequence on plain tensor should error")
	}
}

func TestLinkTensor(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	links, err := ds.CreateTensor(ctx, TensorSpec{Name: "ext", Htype: "link[image]"})
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{"sim://bucket-a/img0.jpg", "sim://bucket-b/img1.jpg"}
	for _, u := range urls {
		if err := links.AppendLink(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	for i, u := range urls {
		got, err := links.LinkAt(ctx, uint64(i))
		if err != nil || got != u {
			t.Fatalf("LinkAt(%d) = %q, %v", i, got, err)
		}
		// At returns the stored URL bytes.
		arr, err := links.At(ctx, uint64(i))
		if err != nil || string(arr.Bytes()) != u {
			t.Fatalf("At(%d) = %v, %v", i, arr, err)
		}
	}
	if err := links.Append(ctx, tensor.MustNew(tensor.UInt8, 2, 2, 3)); err == nil {
		t.Fatal("Append on link tensor should error")
	}
	plain, _ := ds.CreateTensor(ctx, TensorSpec{Name: "plain", Dtype: tensor.Int32})
	if err := plain.AppendLink(ctx, "x"); err == nil {
		t.Fatal("AppendLink on plain tensor should error")
	}
	if _, err := plain.LinkAt(ctx, 0); err == nil {
		t.Fatal("LinkAt on plain tensor should error")
	}
}

// copyRow appends row idx of src to dst, as Merge copies a row.
func copyRow(ctx context.Context, dst, src *Tensor, idx uint64) error {
	row, err := dst.RowsFrom(src).Row(ctx, idx)
	if err != nil {
		return err
	}
	return dst.AppendRow(ctx, row)
}

// TestCopyRowAcrossStoredForms: a row of a tensor that stores rows otherwise
// than the destination (here PNG into uncompressed) is decoded and encoded
// for it, a sequence row item by item, and reads back as the source row.
func TestCopyRowAcrossStoredForms(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	pixels := make([]byte, 4*5*3)
	for i := range pixels {
		pixels[i] = byte(i * 7)
	}
	img, _ := tensor.FromBytes(tensor.UInt8, []int{4, 5, 3}, pixels)
	for _, htype := range []string{"image", "sequence[image]"} {
		src, err := ds.CreateTensor(ctx, TensorSpec{Name: "src " + htype, Htype: htype, SampleCompression: "png"})
		if err != nil {
			t.Fatal(err)
		}
		dst, err := ds.CreateTensor(ctx, TensorSpec{Name: "dst " + htype, Htype: htype, SampleCompression: "none"})
		if err != nil {
			t.Fatal(err)
		}
		if htype == "image" {
			err = src.Append(ctx, img)
		} else {
			err = src.AppendSequence(ctx, []*tensor.NDArray{img, img})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := copyRow(ctx, dst, src, 0); err != nil {
			t.Fatal(err)
		}
		want, _ := src.At(ctx, 0)
		got, err := dst.At(ctx, 0)
		if err != nil || !reflect.DeepEqual(got.Shape(), want.Shape()) || !reflect.DeepEqual(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: copied row %v (%v), want %v", htype, got, err, want)
		}
		items, ok, err := dst.NewScanReader().StoredRow(ctx, 0)
		if err != nil || !ok {
			t.Fatalf("%s: StoredRow = %v, %v", htype, ok, err)
		}
		for _, s := range items {
			if !reflect.DeepEqual(s.Data, pixels) {
				t.Fatalf("%s: stored %d bytes, want the %d raw pixels", htype, len(s.Data), len(pixels))
			}
		}
	}
}

// TestAppendRowRefusesAnotherStoredForm: a row read in a PNG tensor's stored
// form is PNG bytes, so a tensor that stores raw pixels refuses it.
func TestAppendRowRefusesAnotherStoredForm(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	src, _ := ds.CreateTensor(ctx, TensorSpec{Name: "src", Htype: "image", SampleCompression: "png"})
	dst, _ := ds.CreateTensor(ctx, TensorSpec{Name: "dst", Htype: "image", SampleCompression: "none"})
	img, _ := tensor.FromBytes(tensor.UInt8, []int{4, 5, 3}, make([]byte, 4*5*3))
	if err := src.Append(ctx, img); err != nil {
		t.Fatal(err)
	}
	row, err := src.RowsFrom(src).Row(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AppendRow(ctx, row); err == nil || dst.Len() != 0 {
		t.Fatalf("AppendRow of a PNG row into raw storage = %v, %d rows", err, dst.Len())
	}
	if err := src.AppendRow(ctx, row); err != nil || src.Len() != 2 {
		t.Fatalf("AppendRow into the tensor it was read from = %v, %d rows", err, src.Len())
	}
}

// TestCopyRowTilesForItsBounds: a stored raw sample that fits the source's
// chunks but not the destination's is tiled there, as Append would tile it.
func TestCopyRowTilesForItsBounds(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	src, _ := ds.CreateTensor(ctx, TensorSpec{Name: "src", Dtype: tensor.UInt8})
	dst, _ := ds.CreateTensor(ctx, TensorSpec{Name: "dst", Dtype: tensor.UInt8, Bounds: smallBounds})
	raw := make([]byte, 24*24)
	for i := range raw {
		raw[i] = byte(i)
	}
	arr, _ := tensor.FromBytes(tensor.UInt8, []int{24, 24}, raw)
	if err := src.Append(ctx, arr); err != nil {
		t.Fatal(err)
	}
	if err := copyRow(ctx, dst, src, 0); err != nil {
		t.Fatal(err)
	}
	if _, tiled := dst.tileEnc.Get(0); !tiled {
		t.Fatal("a sample over the destination's Bounds.Max was not tiled")
	}
	if got, _, err := dst.RawAt(ctx, 0); err != nil || !reflect.DeepEqual(got, raw) {
		t.Fatalf("tiled copy reads %d bytes (%v), want the source's %d", len(got), err, len(raw))
	}
}

// TestRawAtRefusesSequenceRows: RawAt takes a row, and a sequence row has no
// one stored sample, so on a sequence tensor it fails for every row, naming
// the tensor, instead of reading the flat item of that index — another
// row's bytes.
func TestRawAtRefusesSequenceRows(t *testing.T) {
	ctx := context.Background()
	ds, _ := newTestDataset(t)
	seq, err := ds.CreateTensor(ctx, TensorSpec{Name: "clips", Htype: "sequence[image]", SampleCompression: "jpeg"})
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 8; row++ {
		items := make([]*tensor.NDArray, 1+row%3)
		for k := range items {
			items[k] = tensor.MustNew(tensor.UInt8, 8, 8, 3)
		}
		if err := seq.AppendSequence(ctx, items); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	for row := uint64(0); row < 8; row++ {
		if raw, _, err := seq.RawAt(ctx, row); err == nil || !strings.Contains(err.Error(), `"clips"`) {
			t.Fatalf("RawAt(%d) = %d bytes, %v; want an error naming the sequence tensor", row, len(raw), err)
		}
	}
}
