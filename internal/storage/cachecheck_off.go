//go:build !cachecheck

package storage

// cacheCheck is off outside cachecheck builds; see cachecheck.go.
const cacheCheck = false

func valueCRC(any) uint32 { return 0 }
