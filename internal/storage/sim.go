package storage

import (
	"context"

	"repro/internal/simnet"
)

// Sim wraps a provider with a simulated network cost model, turning an
// in-memory map into "an S3 bucket in us-east". Every operation first pays
// the simnet charge (latency + bandwidth on a bounded lane pool), then
// delegates to the inner provider.
type Sim struct {
	passthrough
	net *simnet.Network
}

// NewSim wraps inner with the given cost profile.
func NewSim(inner Provider, profile simnet.Profile) *Sim {
	return &Sim{passthrough: passthrough{inner}, net: simnet.NewNetwork(profile)}
}

// NewSimObjectStore is the common construction: a fresh in-memory bucket
// behind the given network profile.
func NewSimObjectStore(profile simnet.Profile) *Sim {
	return NewSim(NewMemory(), profile)
}

// Network exposes the underlying transport for traffic statistics.
func (s *Sim) Network() *simnet.Network { return s.net }

// Inner returns the wrapped provider.
func (s *Sim) Inner() Provider { return s.inner }

// Get implements Provider. Exactly one inner call and one network charge per
// logical request: anything stacked below (fault injection, counting) sees a
// Get as a single origin touch, and the object cannot change between a
// separate size probe and the read.
func (s *Sim) Get(ctx context.Context, key string) ([]byte, error) {
	data, err := s.inner.Get(ctx, key)
	if err != nil {
		// A failed lookup still costs a round trip.
		if nerr := s.net.Read(ctx, 0); nerr != nil {
			return nil, nerr
		}
		return nil, err
	}
	if err := s.net.Read(ctx, len(data)); err != nil {
		return nil, err
	}
	return data, nil
}

// GetRange implements Provider.
func (s *Sim) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	data, err := s.inner.GetRange(ctx, key, offset, length)
	if err != nil {
		if nerr := s.net.Read(ctx, 0); nerr != nil {
			return nil, nerr
		}
		return nil, err
	}
	if err := s.net.Read(ctx, len(data)); err != nil {
		return nil, err
	}
	return data, nil
}

// GetRanges implements BatchProvider with batch pricing: the whole batch
// pays ONE round-trip latency plus bandwidth for the total payload, instead
// of one latency charge per range the sequential fallback would cost. This
// is the request-count economics the fetch-plan layer exists for — N chunk
// ranges in one request cost one RTT. A batch that fails partway still pays
// one round trip (latency plus whatever payload did transfer).
func (s *Sim) GetRanges(ctx context.Context, reqs []RangeReq) ([][]byte, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out, err := GetRanges(ctx, s.inner, reqs)
	total := 0
	for _, data := range out {
		total += len(data)
	}
	if nerr := s.net.Read(ctx, total); nerr != nil && err == nil {
		err = nerr
	}
	return out, err
}

// Put implements Provider.
func (s *Sim) Put(ctx context.Context, key string, data []byte) error {
	if err := s.net.Write(ctx, len(data)); err != nil {
		return err
	}
	return s.inner.Put(ctx, key, data)
}

// Delete implements Provider.
func (s *Sim) Delete(ctx context.Context, key string) error {
	if err := s.net.Write(ctx, 0); err != nil {
		return err
	}
	return s.inner.Delete(ctx, key)
}

// Exists implements Provider.
func (s *Sim) Exists(ctx context.Context, key string) (bool, error) {
	if err := s.net.Read(ctx, 0); err != nil {
		return false, err
	}
	return s.inner.Exists(ctx, key)
}

// List implements Provider. Listing pays one round trip per thousand keys,
// mirroring paginated LIST APIs.
func (s *Sim) List(ctx context.Context, prefix string) ([]string, error) {
	keys, err := s.inner.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	pages := len(keys)/1000 + 1
	for i := 0; i < pages; i++ {
		if err := s.net.Read(ctx, 0); err != nil {
			return nil, err
		}
	}
	return keys, nil
}

// Size implements Provider. Metadata-only HEAD request: latency, no bytes.
func (s *Sim) Size(ctx context.Context, key string) (int64, error) {
	if err := s.net.Read(ctx, 0); err != nil {
		return 0, err
	}
	return s.inner.Size(ctx, key)
}
