package viz

import (
	"bytes"
	"context"
	"encoding/json"
	"image/png"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// vizDataset builds a dataset with image + bbox + mask + label tensors.
func vizDataset(t *testing.T) *core.Dataset {
	t.Helper()
	ctx := context.Background()
	ds, err := core.Create(ctx, storage.NewMemory(), "viz")
	if err != nil {
		t.Fatal(err)
	}
	img, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "images", Htype: "image"})
	box, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "boxes", Htype: "bbox"})
	mask, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "masks", Htype: "binary_mask", Dtype: tensor.UInt8})
	lbl, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label"})
	cap_, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "captions", Htype: "text"})

	for i := 0; i < 3; i++ {
		pic := tensor.MustNew(tensor.UInt8, 32, 32, 3)
		for p := 0; p < pic.Len(); p++ {
			pic.Bytes()[p] = byte(40 + i) // near-constant: JPEG-stable
		}
		if err := img.Append(ctx, pic); err != nil {
			t.Fatal(err)
		}
		b, _ := tensor.FromFloat64s(tensor.Float32, []int{1, 4}, []float64{4, 4, 10, 10})
		box.Append(ctx, b)
		m := tensor.MustNew(tensor.UInt8, 32, 32)
		for y := 20; y < 28; y++ {
			for x := 20; x < 28; x++ {
				m.SetAt(1, y, x)
			}
		}
		mask.Append(ctx, m)
		lbl.Append(ctx, tensor.Scalar(tensor.Int32, float64(i)))
		cap_.Append(ctx, tensor.FromString("sample caption"))
	}
	return ds
}

func TestLayoutRolesAndOrder(t *testing.T) {
	ds := vizDataset(t)
	layout := Layout(ds)
	if len(layout) != 5 {
		t.Fatalf("layout items = %d", len(layout))
	}
	if layout[0].Tensor != "images" || layout[0].Role != RolePrimary {
		t.Fatalf("first item = %+v, want primary images", layout[0])
	}
	roles := map[string]Role{}
	for _, item := range layout {
		roles[item.Tensor] = item.Role
	}
	for _, overlay := range []string{"boxes", "masks", "labels", "captions"} {
		if roles[overlay] != RoleOverlay {
			t.Fatalf("%s role = %v, want overlay", overlay, roles[overlay])
		}
	}
}

func TestRenderSampleComposites(t *testing.T) {
	ds := vizDataset(t)
	out, err := RenderSample(context.Background(), ds, 0, RenderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 32 || b.Dy() != 32 {
		t.Fatalf("rendered size = %v", b)
	}
	// Box outline pixel: pure red at (4,4).
	r, g, _, _ := img.At(4, 4).RGBA()
	if r>>8 != 255 || g>>8 == 255 {
		t.Fatalf("box pixel = %v", img.At(4, 4))
	}
	// Mask region tinted green-ish at (24,24) vs untinted at (1,30).
	_, gm, _, _ := img.At(24, 24).RGBA()
	_, gu, _, _ := img.At(30, 1).RGBA()
	if gm <= gu {
		t.Fatalf("mask not blended: g(masked)=%d g(unmasked)=%d", gm>>8, gu>>8)
	}
}

func TestRenderNoImageErrors(t *testing.T) {
	ctx := context.Background()
	ds, _ := core.Create(ctx, storage.NewMemory(), "noimg")
	lbl, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "labels", Htype: "class_label"})
	lbl.Append(ctx, tensor.Scalar(tensor.Int32, 1))
	if _, err := RenderSample(ctx, ds, 0, RenderOptions{}); err == nil {
		t.Fatal("render without an image tensor should error")
	}
}

func TestServerEndpoints(t *testing.T) {
	ds := vizDataset(t)
	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()

	// /info
	resp := get(t, srv.URL+"/info")
	var info struct {
		Name    string `json:"name"`
		NumRows uint64 `json:"num_rows"`
		Tensors []struct {
			Name  string `json:"name"`
			Htype string `json:"htype"`
		} `json:"tensors"`
	}
	if err := json.Unmarshal(resp, &info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "viz" || info.NumRows != 3 || len(info.Tensors) != 5 {
		t.Fatalf("info = %+v", info)
	}

	// /layout
	resp = get(t, srv.URL+"/layout")
	var layout []LayoutItem
	if err := json.Unmarshal(resp, &layout); err != nil {
		t.Fatal(err)
	}
	if layout[0].Role != RolePrimary {
		t.Fatalf("layout[0] = %+v", layout[0])
	}

	// /sample image: JPEG bytes.
	resp = get(t, srv.URL+"/sample?tensor=images&row=1")
	if len(resp) < 4 || resp[0] != 0xFF || resp[1] != 0xD8 {
		t.Fatalf("image sample is not JPEG (starts %x)", resp[:2])
	}

	// /sample text: JSON with text field.
	resp = get(t, srv.URL+"/sample?tensor=captions&row=0")
	var sample map[string]any
	if err := json.Unmarshal(resp, &sample); err != nil {
		t.Fatal(err)
	}
	if sample["text"] != "sample caption" {
		t.Fatalf("caption sample = %v", sample)
	}

	// /render: PNG with overlays.
	resp = get(t, srv.URL+"/render?row=0")
	if _, err := png.Decode(bytes.NewReader(resp)); err != nil {
		t.Fatalf("render is not png: %v", err)
	}

	// /query integrates TQL.
	resp = get(t, srv.URL+"/query?q=SELECT+*+FROM+viz+WHERE+labels+%3D%3D+1")
	var qr struct {
		Rows []uint64 `json:"rows"`
	}
	if err := json.Unmarshal(resp, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0] != 1 {
		t.Fatalf("query rows = %v", qr.Rows)
	}
}

func TestServerErrorPaths(t *testing.T) {
	ds := vizDataset(t)
	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()
	for _, path := range []string{
		"/sample?tensor=nosuch&row=0",
		"/sample?tensor=images&row=99",
		"/render?row=abc",
		"/query?q=",
		"/query?q=SELECT+nosuch+FROM+x",
	} {
		code := getStatus(t, srv.URL+path)
		if code < 400 {
			t.Errorf("%s: status = %d, want error", path, code)
		}
	}
}

func TestServerRejectsNonGET(t *testing.T) {
	ds := vizDataset(t)
	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/info", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /info status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("Allow header = %q, want \"GET, HEAD\"", allow)
	}
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := httpGet(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestServerSequenceAndVideoEndpoints(t *testing.T) {
	ctx := context.Background()
	ds, _ := core.Create(ctx, storage.NewMemory(), "media")
	seq, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "frames", Htype: "sequence[generic]", Dtype: tensor.Int32})
	seq.AppendSequence(ctx, []*tensor.NDArray{
		tensor.Scalar(tensor.Int32, 1), tensor.Scalar(tensor.Int32, 2),
	})
	vid, _ := ds.CreateTensor(ctx, core.TensorSpec{Name: "clip", Htype: "video"})
	vid.Append(ctx, tensor.MustNew(tensor.UInt8, 4, 2, 2, 3))
	ds.Flush(ctx)

	srv := httptest.NewServer(NewServer(ds))
	defer srv.Close()

	// Sequence length + per-item access.
	resp := get(t, srv.URL+"/sample?tensor=frames&row=0")
	var seqInfo struct {
		N int `json:"sequence_length"`
	}
	if err := json.Unmarshal(resp, &seqInfo); err != nil || seqInfo.N != 2 {
		t.Fatalf("sequence info = %s, %v", resp, err)
	}
	resp = get(t, srv.URL+"/sample?tensor=frames&row=0&item=1")
	var item struct {
		Dtype string `json:"dtype"`
	}
	if err := json.Unmarshal(resp, &item); err != nil || item.Dtype != "int32" {
		t.Fatalf("item = %s, %v", resp, err)
	}
	if code := getStatus(t, srv.URL+"/sample?tensor=frames&row=0&item=9"); code < 400 {
		t.Fatal("item out of range should error")
	}

	// Video frame access.
	resp = get(t, srv.URL+"/sample?tensor=clip&row=0&frame=2")
	var frame struct {
		Shape []int `json:"shape"`
	}
	if err := json.Unmarshal(resp, &frame); err != nil {
		t.Fatal(err)
	}
	if len(frame.Shape) != 4 || frame.Shape[0] != 1 {
		t.Fatalf("frame shape = %v", frame.Shape)
	}
	if code := getStatus(t, srv.URL+"/sample?tensor=clip&row=0&frame=99"); code < 400 {
		t.Fatal("frame out of range should error")
	}
}
