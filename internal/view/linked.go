package view

import (
	"bytes"
	"context"
	"fmt"
	"image"
	_ "image/jpeg" // sniffed media decoding for resolved links
	_ "image/png"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tensor"
)

// Resolver fetches the bytes behind linked-tensor URLs (§4.5: pointers to
// one or multiple cloud providers, consolidated in a single tensor). URLs
// take the form scheme://bucket/key; each scheme+bucket pair maps to a
// registered storage provider, standing in for the paper's multi-cloud
// credentials set.
type Resolver struct {
	mu        sync.RWMutex
	providers map[string]storage.Provider
}

// NewResolver returns an empty resolver.
func NewResolver() *Resolver {
	return &Resolver{providers: map[string]storage.Provider{}}
}

// Register binds base (e.g. "sim://bucket-a") to a provider.
func (r *Resolver) Register(base string, p storage.Provider) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.providers[strings.TrimSuffix(base, "/")] = p
}

// Fetch retrieves the raw bytes behind url. They are the provider's and
// read-only (see storage.Provider).
func (r *Resolver) Fetch(ctx context.Context, url string) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for base, p := range r.providers {
		if strings.HasPrefix(url, base+"/") {
			return p.Get(ctx, strings.TrimPrefix(url, base+"/"))
		}
	}
	return nil, fmt.Errorf("view: no provider registered for %q", url)
}

// ResolveImage fetches url and decodes it into an HWC uint8 array, the read
// path of link[image] tensors.
func (r *Resolver) ResolveImage(ctx context.Context, url string) (*tensor.NDArray, error) {
	data, err := r.Fetch(ctx, url)
	if err != nil {
		return nil, err
	}
	img, _, err := image.Decode(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("view: decoding %q: %w", url, err)
	}
	b := img.Bounds()
	h, w := b.Dy(), b.Dx()
	pix := make([]byte, h*w*3)
	i := 0
	for y := b.Min.Y; y < b.Max.Y; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			cr, cg, cb, _ := img.At(x, y).RGBA()
			pix[i] = byte(cr >> 8)
			pix[i+1] = byte(cg >> 8)
			pix[i+2] = byte(cb >> 8)
			i += 3
		}
	}
	return tensor.FromBytes(tensor.UInt8, []int{h, w, 3}, pix)
}

// LinkedColumn builds a view column that transparently resolves a
// link[image] tensor through the resolver, so queries, streaming and
// materialization treat it as a regular image tensor (§4.5).
func LinkedColumn(name string, t *core.Tensor, r *Resolver) Column {
	return Column{
		Name: name,
		Eval: func(ctx context.Context, row uint64) (*tensor.NDArray, error) {
			url, err := t.LinkAt(ctx, row)
			if err != nil {
				return nil, err
			}
			return r.ResolveImage(ctx, url)
		},
	}
}
