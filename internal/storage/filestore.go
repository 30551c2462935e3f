package storage

import (
	"fmt"
	"os"
)

// FileStore is a Store backed by an operating-system file. Page i lives
// at byte offset i*PageSize. It gives the simulation real disk
// behaviour when wanted, and backs checkpoint files; tests and
// benchmarks default to MemStore. The page directory (pageDir) makes
// Allocate safe against concurrent page I/O; ReadAt/WriteAt on distinct
// offsets are safe by themselves.
type FileStore struct {
	f   *os.File
	dir pageDir
}

// OpenFileStore opens (or creates) the file at path as a page store.
// An existing file must have a size that is a multiple of PageSize.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", path, err)
	}
	if info.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s size %d is not a multiple of the page size", path, info.Size())
	}
	fs := &FileStore{f: f}
	fs.dir.n = int(info.Size() / PageSize)
	return fs, nil
}

// Allocate implements Store.
func (fs *FileStore) Allocate() (PageID, error) {
	fs.dir.mu.Lock()
	defer fs.dir.mu.Unlock()
	id := PageID(fs.dir.n)
	zero := make([]byte, PageSize)
	if _, err := fs.f.WriteAt(zero, int64(fs.dir.n)*PageSize); err != nil {
		return InvalidPage, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	fs.dir.n++
	return id, nil
}

// ReadPage implements Store.
func (fs *FileStore) ReadPage(id PageID, buf []byte) error {
	if err := fs.dir.check("read", id); err != nil {
		return err
	}
	_, err := fs.f.ReadAt(buf[:PageSize], int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store.
func (fs *FileStore) WritePage(id PageID, buf []byte) error {
	if err := fs.dir.check("write", id); err != nil {
		return err
	}
	if _, err := fs.f.WriteAt(buf[:PageSize], int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// NumPages implements Store.
func (fs *FileStore) NumPages() int { return fs.dir.count() }

// Sync forces written pages to stable media. The checkpoint writer
// calls it before publishing a checkpoint.
func (fs *FileStore) Sync() error { return fs.f.Sync() }

// Close flushes and closes the underlying file.
func (fs *FileStore) Close() error { return fs.f.Close() }
