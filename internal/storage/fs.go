package storage

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS is a provider rooted at a directory of a POSIX filesystem. Keys map to
// file paths under the root; slashes in keys become directories.
type FS struct {
	root string
}

// NewFS creates (if needed) and opens a filesystem provider rooted at dir.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &FS{root: abs}, nil
}

// Root returns the absolute directory backing this provider.
func (f *FS) Root() string { return f.root }

func (f *FS) path(key string) string {
	return filepath.Join(f.root, filepath.FromSlash(key))
}

// Get implements Provider.
func (f *FS) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(f.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	return data, err
}

// GetRange implements Provider.
func (f *FS) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	file, err := os.Open(f.path(key))
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, err
	}
	defer file.Close()
	info, err := file.Stat()
	if err != nil {
		return nil, err
	}
	lo, hi, ok := clampRange(info.Size(), offset, length)
	if !ok {
		return nil, rangeErr(key, offset, length, info.Size())
	}
	out := make([]byte, hi-lo)
	if _, err := file.ReadAt(out, lo); err != nil && err != io.EOF {
		return nil, err
	}
	return out, nil
}

// Put implements Provider. The write is atomic AND durable: data lands in a
// temp file that is fsynced, renamed over the destination, and sealed with
// an fsync of the parent directory — so concurrent readers never observe a
// torn object, and a power cut after Put returns cannot roll the rename
// back or resurface a half-written file. The directory fsync is what makes
// the rename a real commit point: without it the root Put that publishes a
// generation (core's publish) could roll back on crash after the writer
// moved on.
// Every failure path removes the temp file, so no .tmp-* residue outlives a
// failed Put.
func (f *FS) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dst := f.path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, dst); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(filepath.Dir(dst))
}

// syncDir fsyncs a directory so a completed rename inside it survives a
// power cut. Filesystems that refuse to fsync directories (some network
// mounts) degrade to the pre-fsync behavior rather than failing the write.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}

// Delete implements Provider.
func (f *FS) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	err := os.Remove(f.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Exists implements Provider.
func (f *FS) Exists(ctx context.Context, key string) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	_, err := os.Stat(f.path(key))
	if os.IsNotExist(err) {
		return false, nil
	}
	return err == nil, err
}

// List implements Provider. It walks only the directory part of prefix (all
// of it up to the last slash), and below that only the directories the rest
// of prefix can match, so listing roots/ never visits a chunk file. A
// missing directory lists nothing.
func (f *FS) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := f.path(prefix[:strings.LastIndex(prefix, "/")+1])
	var keys []string
	err := filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == start && errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(f.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		switch {
		case d.IsDir():
			if path != start && !strings.HasPrefix(key+"/", prefix) {
				return filepath.SkipDir
			}
		case strings.HasPrefix(key, prefix) && !strings.HasPrefix(d.Name(), ".tmp-"):
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}

// Size implements Provider.
func (f *FS) Size(ctx context.Context, key string) (int64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	info, err := os.Stat(f.path(key))
	if os.IsNotExist(err) {
		return 0, ErrNotFound
	}
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}
