package compress

import (
	"bytes"
	"image"
	"image/color"
	"math/rand"
	"testing"
)

// genericPixels is the reference flattening: the At/Convert loop for every
// image type, including the ones imageToPixelsInto has typed loops for.
func genericPixels(img image.Image) []byte {
	b := img.Bounds()
	out := make([]byte, b.Dx()*b.Dy()*3)
	genericToRGB(out, img)
	return out
}

func randomYCbCr(rng *rand.Rand, r image.Rectangle, ratio image.YCbCrSubsampleRatio) *image.YCbCr {
	img := image.NewYCbCr(r, ratio)
	rng.Read(img.Y)
	rng.Read(img.Cb)
	rng.Read(img.Cr)
	return img
}

var subsampleRatios = []struct {
	name  string
	ratio image.YCbCrSubsampleRatio
}{
	{"444", image.YCbCrSubsampleRatio444},
	{"422", image.YCbCrSubsampleRatio422},
	{"420", image.YCbCrSubsampleRatio420},
	{"440", image.YCbCrSubsampleRatio440},
	{"411", image.YCbCrSubsampleRatio411},
	{"410", image.YCbCrSubsampleRatio410},
}

// TestTypedPixelPathsMatchGeneric pins the typed loops of
// imageToPixelsInto to the generic At/Convert loop, byte for byte.
func TestTypedPixelPathsMatchGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	type tc struct {
		name string
		img  image.Image
		// fallback marks the types that must not have a typed loop: the
		// comparison is then generic against generic, and what the case
		// checks is that imageToPixelsInto still accepts the type.
		fallback bool
	}
	var cases []tc
	for _, sr := range subsampleRatios {
		for _, r := range []image.Rectangle{
			image.Rect(0, 0, 64, 64),
			image.Rect(0, 0, 1, 1),
			image.Rect(0, 0, 7, 5),
			image.Rect(0, 0, 33, 17),
			image.Rect(3, 5, 40, 22), // non-zero, odd origin
		} {
			img := randomYCbCr(rng, r, sr.ratio)
			cases = append(cases, tc{name: "ycbcr" + sr.name + "/" + r.String(), img: img})
		}
		// A SubImage shares the parent's planes at an odd offset, so its
		// chroma origin sits mid-sample.
		parent := randomYCbCr(rng, image.Rect(0, 0, 48, 40), sr.ratio)
		for _, r := range []image.Rectangle{image.Rect(5, 3, 30, 29), image.Rect(8, 8, 9, 9), image.Rect(1, 2, 48, 40)} {
			cases = append(cases, tc{name: "ycbcr" + sr.name + "/sub" + r.String(), img: parent.SubImage(r)})
		}
		neg := randomYCbCr(rng, image.Rect(-5, -3, 12, 9), sr.ratio)
		cases = append(cases, tc{name: "ycbcr" + sr.name + "/negative-origin", img: neg, fallback: true})
	}
	cases = append(cases, tc{name: "ycbcr/unknown-ratio", fallback: true, img: func() image.Image {
		img := randomYCbCr(rng, image.Rect(0, 0, 9, 9), image.YCbCrSubsampleRatio444)
		img.SubsampleRatio = image.YCbCrSubsampleRatio(99)
		return img
	}()})

	rgba := image.NewRGBA(image.Rect(2, 1, 35, 20))
	rng.Read(rgba.Pix) // arbitrary alpha, not even valid premultiplication
	cases = append(cases, tc{name: "rgba", img: rgba}, tc{name: "rgba/sub", img: rgba.SubImage(image.Rect(7, 3, 20, 19))})

	nrgba := image.NewNRGBA(image.Rect(0, 0, 31, 13))
	rng.Read(nrgba.Pix)
	for i := 3; i < len(nrgba.Pix); i += 4 {
		switch (i / 4) % 4 {
		case 0:
			nrgba.Pix[i] = 0
		case 1:
			nrgba.Pix[i] = 128
		case 2:
			nrgba.Pix[i] = 255
		} // case 3 keeps a random alpha
	}
	cases = append(cases, tc{name: "nrgba", img: nrgba}, tc{name: "nrgba/sub", img: nrgba.SubImage(image.Rect(3, 2, 30, 11))})

	cmyk := image.NewCMYK(image.Rect(0, 0, 11, 9))
	rng.Read(cmyk.Pix)
	pal := image.NewPaletted(image.Rect(0, 0, 11, 9), color.Palette{color.RGBA{1, 2, 3, 255}, color.NRGBA{200, 100, 50, 128}, color.Gray{77}})
	for i := range pal.Pix {
		pal.Pix[i] = uint8(rng.Intn(3))
	}
	rgba64 := image.NewRGBA64(image.Rect(0, 0, 6, 7))
	rng.Read(rgba64.Pix)
	cases = append(cases,
		tc{name: "cmyk", img: cmyk, fallback: true},
		tc{name: "paletted", img: pal, fallback: true},
		tc{name: "rgba64", img: rgba64, fallback: true},
	)

	for _, c := range cases {
		got, h, w, ch := imageToPixelsInto(c.img, heapAlloc)
		b := c.img.Bounds()
		if h != b.Dy() || w != b.Dx() || ch != 3 {
			t.Errorf("%s: dims %dx%dx%d, want %dx%dx3", c.name, h, w, ch, b.Dy(), b.Dx())
			continue
		}
		if want := genericPixels(c.img); !bytes.Equal(got, want) {
			t.Errorf("%s: typed output differs from the generic At/Convert loop (first diff at byte %d)", c.name, firstDiff(got, want))
		}
		if y, ok := c.img.(*image.YCbCr); ok {
			if typed := ycbcrToRGB(make([]byte, len(got)), y); typed == c.fallback {
				t.Errorf("%s: ycbcrToRGB handled=%v, want %v", c.name, typed, !c.fallback)
			}
		}
	}

	// Gray keeps one channel; the reference is the generic loop's red byte.
	gray := image.NewGray(image.Rect(0, 0, 21, 10))
	rng.Read(gray.Pix)
	for _, img := range []image.Image{gray, gray.SubImage(image.Rect(4, 2, 19, 9))} {
		got, h, w, ch := imageToPixelsInto(img, heapAlloc)
		ref := genericPixels(img)
		if ch != 1 || len(got) != h*w {
			t.Fatalf("gray: channels %d len %d for %dx%d", ch, len(got), h, w)
		}
		for i := range got {
			if got[i] != ref[i*3] {
				t.Fatalf("gray %v: byte %d = %d, generic %d", img.Bounds(), i, got[i], ref[i*3])
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestDecodeEqualsDecodeInto round-trips real JPEG and PNG streams: the
// heap and the caller-buffer entry points return the same bytes, and both
// equal the generic flattening of what the stdlib decoder produced.
func TestDecodeEqualsDecodeInto(t *testing.T) {
	for _, name := range []string{"jpeg", "png"} {
		codec, err := SampleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, dims := range [][3]int{{64, 64, 3}, {37, 53, 3}, {1, 1, 3}, {40, 24, 1}} {
			h, w, ch := dims[0], dims[1], dims[2]
			enc, err := codec.Encode(makeTestImage(h, w, ch), h, w, ch)
			if err != nil {
				t.Fatal(err)
			}
			p1, h1, w1, c1, err := codec.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			var handed []byte
			p2, h2, w2, c2, err := codec.(DecoderInto).DecodeInto(enc, func(n int) []byte {
				handed = make([]byte, n)
				return handed
			})
			if err != nil {
				t.Fatal(err)
			}
			if h1 != h || w1 != w || c1 != ch || h2 != h || w2 != w || c2 != ch {
				t.Fatalf("%s %v: dims %d,%d,%d / %d,%d,%d", name, dims, h1, w1, c1, h2, w2, c2)
			}
			if !bytes.Equal(p1, p2) {
				t.Fatalf("%s %v: Decode and DecodeInto differ at byte %d", name, dims, firstDiff(p1, p2))
			}
			if len(p2) == 0 || &p2[0] != &handed[0] {
				t.Fatalf("%s %v: DecodeInto did not write into the buffer alloc returned", name, dims)
			}
			img, _, err := image.Decode(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if ch == 3 && !bytes.Equal(p1, genericPixels(img)) {
				t.Fatalf("%s %v (%T): decode differs from the generic flattening", name, dims, img)
			}
		}
	}
}

// TestJPEGDecodeIntoAllocs gates the per-sample allocation count of a colour
// JPEG decode whose pixel buffer comes from the caller: what is left is the
// stdlib decoder's own state (decoder struct, three planes, the image
// header), and nothing per pixel.
func TestJPEGDecodeIntoAllocs(t *testing.T) {
	codec, _ := SampleByName("jpeg")
	enc, err := codec.Encode(makeTestImage(64, 64, 3), 64, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*64*3)
	alloc := func(n int) []byte { return buf[:n] }
	di := codec.(DecoderInto)
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, _, _, err := di.DecodeInto(enc, alloc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("jpeg DecodeInto of a 64x64x3 sample: %.0f allocs, want <= 8", allocs)
	}
}

var benchSink []byte

func BenchmarkImageToPixels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	r := image.Rect(0, 0, 64, 64)
	rgba := image.NewRGBA(r)
	rng.Read(rgba.Pix)
	nrgba := image.NewNRGBA(r)
	rng.Read(nrgba.Pix)
	gray := image.NewGray(r)
	rng.Read(gray.Pix)
	cmyk := image.NewCMYK(r)
	rng.Read(cmyk.Pix)
	for _, c := range []struct {
		name string
		img  image.Image
	}{
		{"ycbcr420", randomYCbCr(rng, r, image.YCbCrSubsampleRatio420)},
		{"ycbcr444", randomYCbCr(rng, r, image.YCbCrSubsampleRatio444)},
		{"rgba", rgba},
		{"nrgba", nrgba},
		{"gray", gray},
		{"generic", cmyk},
	} {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 64*64*3)
			alloc := func(n int) []byte { return buf[:n] }
			b.ReportAllocs()
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _, _, _ = imageToPixelsInto(c.img, alloc)
			}
		})
	}
}

func BenchmarkJPEGDecodeInto(b *testing.B) {
	codec, _ := SampleByName("jpeg")
	enc, err := codec.Encode(makeTestImage(64, 64, 3), 64, 64, 3)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64*64*3)
	alloc := func(n int) []byte { return buf[:n] }
	di := codec.(DecoderInto)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if benchSink, _, _, _, err = di.DecodeInto(enc, alloc); err != nil {
			b.Fatal(err)
		}
	}
}
