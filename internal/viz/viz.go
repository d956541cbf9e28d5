// Package viz implements the visualization engine of §4.3: an htype-aware
// layout planner that decides how each tensor should be displayed (primary
// media first, annotations overlaid), a server-side renderer compositing
// bounding boxes and masks onto images, and an HTTP API that streams
// sample data directly from the dataset's storage provider — no separate
// managed service, matching the paper's architecture (the WebGL rasterizer
// is replaced by server-side PNG encoding).
package viz

import (
	"bytes"
	"context"
	"fmt"
	"image"
	"image/color"
	"image/draw"
	"image/png"

	"repro/internal/core"
	"repro/internal/tensor"
)

// Role classifies how a tensor participates in the display.
type Role string

// Display roles (§4.3: "Primary tensors, such as image, video and audio
// are displayed first, while secondary data and annotations ... are
// overlayed").
const (
	RolePrimary Role = "primary"
	RoleOverlay Role = "overlay"
	RoleMeta    Role = "meta"
)

// LayoutItem is one tensor's display assignment.
type LayoutItem struct {
	Tensor   string `json:"tensor"`
	Htype    string `json:"htype"`
	Role     Role   `json:"role"`
	Sequence bool   `json:"sequence,omitempty"`
}

// Layout plans the display of a dataset from its htypes.
func Layout(ds *core.Dataset) []LayoutItem {
	var out []LayoutItem
	for _, name := range ds.Tensors() {
		t := ds.Tensor(name)
		spec := t.Htype()
		item := LayoutItem{Tensor: name, Htype: t.Meta().Htype, Sequence: spec.Sequence}
		switch spec.Base.Name {
		case "image", "video", "audio":
			item.Role = RolePrimary
		case "bbox", "binary_mask", "segment_mask":
			item.Role = RoleOverlay
		case "class_label", "text":
			item.Role = RoleOverlay
		default:
			item.Role = RoleMeta
		}
		out = append(out, item)
	}
	// Primary tensors first, preserving creation order within roles.
	rank := func(r Role) int {
		switch r {
		case RolePrimary:
			return 0
		case RoleOverlay:
			return 1
		}
		return 2
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rank(out[j].Role) < rank(out[j-1].Role); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RenderOptions configures RenderSample.
type RenderOptions struct {
	// BoxColor tints bounding boxes (default red).
	BoxColor color.RGBA
	// MaskColor tints binary masks (default green, alpha blended).
	MaskColor color.RGBA
}

func (o RenderOptions) withDefaults() RenderOptions {
	zero := color.RGBA{}
	if o.BoxColor == zero {
		o.BoxColor = color.RGBA{R: 255, A: 255}
	}
	if o.MaskColor == zero {
		o.MaskColor = color.RGBA{G: 200, A: 120}
	}
	return o
}

// RenderSample composites row idx: the first primary image tensor as the
// base, every bbox tensor drawn as rectangles, every binary_mask tensor
// alpha-blended (§4.3: "compare predictions to ground truth" overlays). It
// returns a PNG.
func RenderSample(ctx context.Context, ds *core.Dataset, idx uint64, opts RenderOptions) ([]byte, error) {
	opts = opts.withDefaults()
	layout := Layout(ds)
	var base *image.RGBA
	for _, item := range layout {
		if item.Role != RolePrimary || item.Sequence {
			continue
		}
		t := ds.Tensor(item.Tensor)
		if t.Htype().Base.Name != "image" || t.Htype().Link {
			continue
		}
		if idx >= t.Len() {
			continue
		}
		arr, err := t.At(ctx, idx)
		if err != nil {
			return nil, err
		}
		base = toRGBA(arr)
		break
	}
	if base == nil {
		return nil, fmt.Errorf("viz: no renderable image tensor at row %d", idx)
	}
	for _, item := range layout {
		if item.Role != RoleOverlay {
			continue
		}
		t := ds.Tensor(item.Tensor)
		if idx >= t.Len() {
			continue
		}
		switch t.Htype().Base.Name {
		case "bbox":
			arr, err := t.At(ctx, idx)
			if err != nil {
				return nil, err
			}
			drawBoxes(base, arr, opts.BoxColor)
		case "binary_mask":
			arr, err := t.At(ctx, idx)
			if err != nil {
				return nil, err
			}
			blendMask(base, arr, opts.MaskColor)
		}
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, base); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// toRGBA converts an HW or HWC uint8 array into an RGBA image.
func toRGBA(arr *tensor.NDArray) *image.RGBA {
	s := arr.Shape()
	h, w, c := s[0], 1, 1
	if len(s) >= 2 {
		w = s[1]
	}
	if len(s) >= 3 {
		c = s[2]
	}
	img := image.NewRGBA(image.Rect(0, 0, w, h))
	pix := arr.Bytes()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var r, g, b byte
			switch c {
			case 1:
				v := pix[y*w+x]
				r, g, b = v, v, v
			default:
				base := (y*w + x) * c
				r, g, b = pix[base], pix[base+1%c], pix[base+2%c]
				if c >= 3 {
					g, b = pix[base+1], pix[base+2]
				}
			}
			img.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	return img
}

// drawBoxes strokes [x, y, w, h] rectangles.
func drawBoxes(img *image.RGBA, boxes *tensor.NDArray, c color.RGBA) {
	rows := boxes.Float64s()
	n := len(rows) / 4
	b := img.Bounds()
	for k := 0; k < n; k++ {
		x0, y0 := int(rows[k*4]), int(rows[k*4+1])
		x1, y1 := x0+int(rows[k*4+2]), y0+int(rows[k*4+3])
		for x := x0; x <= x1; x++ {
			setIfIn(img, b, x, y0, c)
			setIfIn(img, b, x, y1, c)
		}
		for y := y0; y <= y1; y++ {
			setIfIn(img, b, x0, y, c)
			setIfIn(img, b, x1, y, c)
		}
	}
}

func setIfIn(img *image.RGBA, b image.Rectangle, x, y int, c color.RGBA) {
	if image.Pt(x, y).In(b) {
		img.SetRGBA(x, y, c)
	}
}

// blendMask alpha-blends non-zero mask pixels.
func blendMask(img *image.RGBA, mask *tensor.NDArray, c color.RGBA) {
	s := mask.Shape()
	if len(s) < 2 {
		return
	}
	h, w := s[0], s[1]
	bounds := img.Bounds()
	src := image.NewUniform(c)
	for y := 0; y < h && y < bounds.Dy(); y++ {
		for x := 0; x < w && x < bounds.Dx(); x++ {
			v, err := mask.At(y, x)
			if err != nil || v == 0 {
				continue
			}
			draw.Draw(img, image.Rect(x, y, x+1, y+1), src, image.Point{}, draw.Over)
		}
	}
}
