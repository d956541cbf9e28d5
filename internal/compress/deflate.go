package compress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"io"
	"sync"
)

// deflateCodec wraps the standard library DEFLATE implementation. It offers
// a higher ratio than LZ4 at higher CPU cost, the trade-off the format
// design section (§7.1) discusses for rarely-read tensors.
type deflateCodec struct{}

func (deflateCodec) Name() string { return "deflate" }

func (deflateCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (deflateCodec) Decompress(src []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	defer r.Close()
	return io.ReadAll(r)
}

// deflateWriters and deflateReaders recycle the codec state of AppendBlock
// and DecodeBlock, which is what a DEFLATE stream allocates; the blocks
// themselves go to and come from the caller's buffers.
var (
	deflateWriters = sync.Pool{New: func() any {
		w, _ := flate.NewWriter(nil, flate.BestSpeed) // BestSpeed is a valid level
		return w
	}}
	deflateReaders = sync.Pool{New: func() any {
		return &deflateReader{r: flate.NewReader(nil)}
	}}
)

// deflateReader is a pooled DEFLATE decoder, the reader of its input, and
// the byte DecodeBlock reads past the end into.
type deflateReader struct {
	src  bytes.Reader
	r    io.ReadCloser
	past [1]byte
}

// AppendBlock appends the DEFLATE stream of src to dst, for a container
// that records src's length itself (a chunk's block table). ok is false,
// and dst is returned unchanged, when the stream would not be shorter than
// src.
func (deflateCodec) AppendBlock(dst, src []byte) (out []byte, ok bool) {
	w := deflateWriters.Get().(*flate.Writer)
	buf := bytes.NewBuffer(dst)
	w.Reset(buf)
	_, werr := w.Write(src)
	cerr := w.Close()
	w.Reset(io.Discard) // the pooled writer keeps no caller buffer alive
	deflateWriters.Put(w)
	if werr != nil || cerr != nil || buf.Len()-len(dst) >= len(src) {
		return dst, false
	}
	return buf.Bytes(), true
}

// DecodeBlock decodes a DEFLATE stream AppendBlock wrote into exactly
// len(dst) bytes, with a pooled decoder.
func (deflateCodec) DecodeBlock(dst, src []byte) error {
	d := deflateReaders.Get().(*deflateReader)
	defer deflateReaders.Put(d)
	d.src.Reset(src)
	if err := d.r.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return err
	}
	if _, err := io.ReadFull(d.r, dst); err != nil {
		return err
	}
	if n, err := d.r.Read(d.past[:]); n != 0 || err != io.EOF {
		return errors.New("deflate: block decodes past its length")
	}
	return nil
}

// gzipCodec is DEFLATE with the gzip container, provided for parity with
// formats (TFRecord, WebDataset) that conventionally gzip their payloads.
type gzipCodec struct{}

func (gzipCodec) Name() string { return "gzip" }

func (gzipCodec) Compress(src []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(src); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (gzipCodec) Decompress(src []byte) ([]byte, error) {
	r, err := gzip.NewReader(bytes.NewReader(src))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return io.ReadAll(r)
}

func init() {
	Register(deflateCodec{})
	Register(gzipCodec{})
}
