//go:build !cachecheck

package storage

// CacheCheck is off outside cachecheck builds; see cachecheck.go.
const CacheCheck = false

func valueCRC(any) uint32 { return 0 }
