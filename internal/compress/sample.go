package compress

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"image/png"
	"io"
	"sort"
	"sync"
)

// SampleCodec encodes and decodes individual media samples (the paper's
// "sample compression", §5: an image tensor with sample compression JPEG
// copies raw JPEG bytes straight into chunks). Pixels are exchanged as raw
// HWC uint8 buffers, the layout the dataloader hands to the training loop.
type SampleCodec interface {
	// Name is the identifier recorded in tensor metadata (e.g. "jpeg").
	Name() string
	// Encode turns raw HWC uint8 pixels into the media format.
	Encode(pixels []byte, height, width, channels int) ([]byte, error)
	// Decode turns media bytes back into raw HWC uint8 pixels.
	Decode(data []byte) (pixels []byte, height, width, channels int, err error)
}

var (
	sampleMu       sync.RWMutex
	sampleRegistry = make(map[string]SampleCodec)
)

// RegisterSample makes a sample codec available by name.
func RegisterSample(c SampleCodec) {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	if _, dup := sampleRegistry[c.Name()]; dup {
		panic(fmt.Sprintf("compress: duplicate sample codec %q", c.Name()))
	}
	sampleRegistry[c.Name()] = c
}

// SampleByName returns the sample codec registered under name.
func SampleByName(name string) (SampleCodec, error) {
	sampleMu.RLock()
	defer sampleMu.RUnlock()
	c, ok := sampleRegistry[name]
	if !ok {
		return nil, fmt.Errorf("compress: unknown sample codec %q", name)
	}
	return c, nil
}

// SampleNames lists registered sample codec names in sorted order.
func SampleNames() []string {
	sampleMu.RLock()
	defer sampleMu.RUnlock()
	out := make([]string, 0, len(sampleRegistry))
	for name := range sampleRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// pixelsToImage wraps an HWC uint8 buffer as an image.Image without copying
// when possible.
func pixelsToImage(pixels []byte, height, width, channels int) (image.Image, error) {
	if height <= 0 || width <= 0 {
		return nil, fmt.Errorf("compress: invalid image dims %dx%d", height, width)
	}
	if len(pixels) != height*width*channels {
		return nil, fmt.Errorf("compress: pixel buffer %d bytes != %d*%d*%d", len(pixels), height, width, channels)
	}
	switch channels {
	case 1:
		return &image.Gray{Pix: pixels, Stride: width, Rect: image.Rect(0, 0, width, height)}, nil
	case 3:
		// Expand RGB to RGBA for the stdlib encoders.
		rgba := image.NewRGBA(image.Rect(0, 0, width, height))
		for y := 0; y < height; y++ {
			src := pixels[y*width*3 : (y+1)*width*3]
			dst := rgba.Pix[y*rgba.Stride : y*rgba.Stride+width*4]
			for x := 0; x < width; x++ {
				dst[x*4+0] = src[x*3+0]
				dst[x*4+1] = src[x*3+1]
				dst[x*4+2] = src[x*3+2]
				dst[x*4+3] = 0xFF
			}
		}
		return rgba, nil
	case 4:
		return &image.RGBA{Pix: pixels, Stride: width * 4, Rect: image.Rect(0, 0, width, height)}, nil
	default:
		return nil, fmt.Errorf("compress: unsupported channel count %d", channels)
	}
}

// DecoderInto is an optional SampleCodec extension: DecodeInto is Decode
// with the flattened HWC pixel buffer obtained from alloc instead of the
// heap, so a caller holding an arena can serve the per-sample pixel buffer
// from pooled slabs (and recycle it, see chunk.Arena). The codec's internal
// decode state (the stdlib image decoders' planes and tables) still lives
// on the heap: the stdlib decoders offer no way to hand them buffers.
type DecoderInto interface {
	DecodeInto(data []byte, alloc func(int) []byte) (pixels []byte, height, width, channels int, err error)
}

func heapAlloc(n int) []byte { return make([]byte, n) }

// readers recycles the bytes.Reader every media decode wraps its input in.
var readers = sync.Pool{New: func() any { return new(bytes.Reader) }}

// decodeInto runs a stdlib image decoder over data through a pooled reader
// and flattens the result into a buffer drawn from alloc.
func decodeInto(decode func(io.Reader) (image.Image, error), data []byte, alloc func(int) []byte) ([]byte, int, int, int, error) {
	r := readers.Get().(*bytes.Reader)
	r.Reset(data)
	img, err := decode(r)
	r.Reset(nil)
	readers.Put(r)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	p, h, w, ch := imageToPixelsInto(img, alloc)
	return p, h, w, ch, nil
}

// imageToPixelsInto flattens any decoded image into an HWC uint8 buffer
// drawn from alloc, which must return a slice of exactly the requested
// length. Gray images come back with 1 channel, everything else with 3
// (alpha dropped), which matches the htype contract for image tensors.
//
// The concrete types the stdlib JPEG and PNG decoders produce for 8-bit
// images take row-wise typed loops; their output is byte-identical to
// genericToRGB, which stays as the path for every other image type (CMYK,
// paletted, 16-bit) and as the reference the tests compare against.
func imageToPixelsInto(img image.Image, alloc func(int) []byte) (pixels []byte, height, width, channels int) {
	b := img.Bounds()
	height, width = b.Dy(), b.Dx()
	if g, ok := img.(*image.Gray); ok {
		pixels = alloc(height * width)
		for y := 0; y < height; y++ {
			copy(pixels[y*width:(y+1)*width], g.Pix[y*g.Stride:y*g.Stride+width])
		}
		return pixels, height, width, 1
	}
	pixels = alloc(height * width * 3)
	switch p := img.(type) {
	case *image.YCbCr:
		if !ycbcrToRGB(pixels, p) {
			genericToRGB(pixels, img)
		}
	case *image.RGBA:
		// color.RGBA converts to itself: the stored (premultiplied)
		// channels are the output whatever the alpha.
		for y := 0; y < height; y++ {
			src := p.Pix[y*p.Stride:][:width*4]
			dst := pixels[y*width*3:][:width*3]
			for s, d := 0, 0; d < len(dst); s, d = s+4, d+3 {
				dst[d], dst[d+1], dst[d+2] = src[s], src[s+1], src[s+2]
			}
		}
	case *image.NRGBA:
		for y := 0; y < height; y++ {
			src := p.Pix[y*p.Stride:][:width*4]
			dst := pixels[y*width*3:][:width*3]
			for s, d := 0, 0; d < len(dst); s, d = s+4, d+3 {
				r, g, b, a := src[s], src[s+1], src[s+2], uint32(src[s+3])
				if a != 0xff {
					// color.NRGBA.RGBA's premultiplication, then the
					// top byte as RGBAModel.Convert takes it.
					r = uint8(uint32(r) * 0x101 * a / 0xff >> 8)
					g = uint8(uint32(g) * 0x101 * a / 0xff >> 8)
					b = uint8(uint32(b) * 0x101 * a / 0xff >> 8)
				}
				dst[d], dst[d+1], dst[d+2] = r, g, b
			}
		}
	default:
		genericToRGB(pixels, img)
	}
	return pixels, height, width, 3
}

// genericToRGB fills dst (Dx*Dy*3 bytes) through the image.Image interface:
// one At and one RGBAModel.Convert per pixel, both boxing their result.
func genericToRGB(dst []byte, img image.Image) {
	b := img.Bounds()
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			c := color.RGBAModel.Convert(img.At(x, y)).(color.RGBA)
			dst[i] = c.R
			dst[i+1] = c.G
			dst[i+2] = c.B
			i += 3
		}
	}
}

// ycbcrToRGB is genericToRGB for *image.YCbCr, every JPEG colour decode:
// the chroma row offset is hoisted out of the pixel loop and the conversion
// is the arithmetic of color.YCbCrToRGB (written out: the call does not
// inline and costs more than the arithmetic), whose 8-bit result equals the
// top byte of color.YCbCr.RGBA that the generic path takes. It reports
// false, leaving dst untouched, for layouts it does not cover: an unknown
// subsample ratio, or negative bounds (COffset divides toward zero, the
// shifts here floor).
func ycbcrToRGB(dst []byte, p *image.YCbCr) bool {
	var hs, vs uint // log2 of the horizontal and vertical chroma subsampling
	switch p.SubsampleRatio {
	case image.YCbCrSubsampleRatio444:
	case image.YCbCrSubsampleRatio422:
		hs = 1
	case image.YCbCrSubsampleRatio420:
		hs, vs = 1, 1
	case image.YCbCrSubsampleRatio440:
		vs = 1
	case image.YCbCrSubsampleRatio411:
		hs = 2
	case image.YCbCrSubsampleRatio410:
		hs, vs = 2, 1
	default:
		return false
	}
	x0, y0 := p.Rect.Min.X, p.Rect.Min.Y
	if x0 < 0 || y0 < 0 {
		return false
	}
	w := p.Rect.Dx()
	for y := y0; y < p.Rect.Max.Y; y++ {
		luma := p.Y[(y-y0)*p.YStride:][:w]
		// The chroma index of column x is cRow + x>>hs.
		cRow := (y>>vs-y0>>vs)*p.CStride - x0>>hs
		out := dst[(y-y0)*w*3:][:w*3]
		for i, yy := range luma {
			ci := cRow + (x0+i)>>hs
			yy1 := int32(yy) * 0x10101
			cb1 := int32(p.Cb[ci]) - 128
			cr1 := int32(p.Cr[ci]) - 128
			o := out[i*3 : i*3+3 : i*3+3]
			o[0] = clamp8(yy1 + 91881*cr1)
			o[1] = clamp8(yy1 - 22554*cb1 - 46802*cr1)
			o[2] = clamp8(yy1 + 116130*cb1)
		}
	}
	return true
}

// clamp8 is the tail of color.YCbCrToRGB: v>>16 saturated to [0, 255].
func clamp8(v int32) uint8 {
	if uint32(v)&0xff000000 == 0 {
		return uint8(v >> 16)
	}
	return uint8(^(v >> 31))
}

// jpegCodec is the lossy photographic sample codec (stdlib image/jpeg).
type jpegCodec struct {
	quality int
}

func (jpegCodec) Name() string { return "jpeg" }

func (c jpegCodec) Encode(pixels []byte, height, width, channels int) ([]byte, error) {
	img, err := pixelsToImage(pixels, height, width, channels)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, img, &jpeg.Options{Quality: c.quality}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (jpegCodec) Decode(data []byte) ([]byte, int, int, int, error) {
	return decodeInto(jpeg.Decode, data, heapAlloc)
}

func (jpegCodec) DecodeInto(data []byte, alloc func(int) []byte) ([]byte, int, int, int, error) {
	return decodeInto(jpeg.Decode, data, alloc)
}

// pngCodec is the lossless image sample codec (stdlib image/png).
type pngCodec struct{}

func (pngCodec) Name() string { return "png" }

func (pngCodec) Encode(pixels []byte, height, width, channels int) ([]byte, error) {
	img, err := pixelsToImage(pixels, height, width, channels)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := png.Encode(&buf, img); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (pngCodec) Decode(data []byte) ([]byte, int, int, int, error) {
	return decodeInto(png.Decode, data, heapAlloc)
}

func (pngCodec) DecodeInto(data []byte, alloc func(int) []byte) ([]byte, int, int, int, error) {
	return decodeInto(png.Decode, data, alloc)
}

func init() {
	RegisterSample(jpegCodec{quality: 91})
	RegisterSample(pngCodec{})
}
