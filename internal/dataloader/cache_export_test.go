package dataloader

import "repro/internal/chunk"

// The table operations under the names nodecache_test.go's pin-contract test
// drives; non-test code calls c.table directly.

func (c *NodeCache) pin(key cacheKey)   { c.table.Pin(key) }
func (c *NodeCache) unpin(key cacheKey) { c.table.Unpin(key) }

func (c *NodeCache) admit(key cacheKey, samples []chunk.Sample) { c.table.Add(key, samples) }

func (c *NodeCache) peek(key cacheKey) ([]chunk.Sample, bool) { return c.table.Peek(key) }
