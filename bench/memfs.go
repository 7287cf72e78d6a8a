package main

import (
	"fmt"
	"io"
	"os"
	"path"
	"slices"
	"sync"

	"repro/internal/wal"
)

// memFS is an in-memory wal.FS. The serving workload journals through it
// with the default fsync-per-mutation policy, so the WAL framing, the
// idempotency journal and every Sync call run exactly as on disk, but
// without disk latency noise and without writing outside the benchmark's
// checkout. Sync is free here, as it is on tmpfs.
type memFS struct {
	mu    sync.Mutex
	files map[string]*memNode
	dirs  map[string]bool
}

type memNode struct {
	mu   sync.Mutex
	data []byte
}

func newMemFS() *memFS {
	return &memFS{files: make(map[string]*memNode), dirs: make(map[string]bool)}
}

func (fs *memFS) MkdirAll(dir string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for d := path.Clean(dir); d != "." && d != "/"; d = path.Dir(d) {
		fs.dirs[d] = true
	}
	return nil
}

func (fs *memFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = path.Clean(dir)
	if !fs.dirs[dir] {
		return nil, fmt.Errorf("memfs: reading directory %s: %w", dir, os.ErrNotExist)
	}
	var names []string
	for p := range fs.files {
		if path.Dir(p) == dir {
			names = append(names, path.Base(p))
		}
	}
	slices.Sort(names)
	return names, nil
}

func (fs *memFS) Create(p string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	p = path.Clean(p)
	if !fs.dirs[path.Dir(p)] {
		return nil, fmt.Errorf("memfs: creating %s: %w", p, os.ErrNotExist)
	}
	n := &memNode{}
	fs.files[p] = n
	return &memFile{node: n}, nil
}

func (fs *memFS) Open(p string) (wal.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[path.Clean(p)]
	if !ok {
		return nil, fmt.Errorf("memfs: opening %s: %w", p, os.ErrNotExist)
	}
	return &memFile{node: n, reader: true}, nil
}

func (fs *memFS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.files[path.Clean(oldPath)]
	if !ok {
		return fmt.Errorf("memfs: renaming %s: %w", oldPath, os.ErrNotExist)
	}
	delete(fs.files, path.Clean(oldPath))
	fs.files[path.Clean(newPath)] = n
	return nil
}

func (fs *memFS) Remove(p string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path.Clean(p)]; !ok {
		return fmt.Errorf("memfs: removing %s: %w", p, os.ErrNotExist)
	}
	delete(fs.files, path.Clean(p))
	return nil
}

func (fs *memFS) Truncate(p string, size int64) error {
	fs.mu.Lock()
	n, ok := fs.files[path.Clean(p)]
	fs.mu.Unlock()
	if !ok {
		return fmt.Errorf("memfs: truncating %s: %w", p, os.ErrNotExist)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if size < int64(len(n.data)) {
		n.data = n.data[:size]
	}
	return nil
}

func (fs *memFS) SyncDir(string) error { return nil }

// memFile is an append-mode writer or a sequential reader over a node.
type memFile struct {
	node   *memNode
	reader bool
	off    int
}

func (f *memFile) Read(b []byte) (int, error) {
	f.node.mu.Lock()
	defer f.node.mu.Unlock()
	if f.off >= len(f.node.data) {
		return 0, io.EOF
	}
	n := copy(b, f.node.data[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(b []byte) (int, error) {
	if f.reader {
		return 0, fmt.Errorf("memfs: write to a file opened for reading")
	}
	f.node.mu.Lock()
	f.node.data = append(f.node.data, b...)
	f.node.mu.Unlock()
	return len(b), nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Sync() error { return nil }
