//go:build cachecheck

package storage

import (
	"hash/crc32"
	"reflect"
)

// CacheCheck turns on Cache's mutation detector (see the Cache type doc).
// It is a test build's safety net: go test -tags cachecheck. A policy
// whose Digest needs state kept for it keeps that state only when it is on.
const CacheCheck = true

// valueCRC is the CRC32C of every byte slice reachable from *p through
// slices, arrays and struct fields, in order: the raw object of the byte
// cache. It follows no pointer; a value that holds its bytes behind one
// has a CacheFuncs.Digest of its own. p is a pointer so that
// boxing it allocates nothing, and the allocation gates hold in this build.
func valueCRC(p any) uint32 { return crcOf(0, reflect.ValueOf(p).Elem()) }

func crcOf(crc uint32, rv reflect.Value) uint32 {
	switch rv.Kind() {
	case reflect.Slice:
		if rv.Type().Elem().Kind() == reflect.Uint8 {
			return crc32.Update(crc, castagnoli, rv.Bytes())
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < rv.Len(); i++ {
			crc = crcOf(crc, rv.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < rv.NumField(); i++ {
			crc = crcOf(crc, rv.Field(i))
		}
	}
	return crc
}
