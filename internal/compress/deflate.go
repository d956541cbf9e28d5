package compress

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
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
