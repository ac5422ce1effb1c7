// Backend abstracts where a snapshot lives. The interface is
// deliberately tiny — write a whole file through a callback, open a
// file for random-access reads — so a remote object store can slot in
// behind the same Writer/Loader later. Dir is the local-directory
// implementation: every write goes to a temp file, is fsync'd, and is
// renamed into place, and the manifest is written last, so readers
// never observe a torn snapshot.

package segment

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Backend is a flat namespace of snapshot files.
type Backend interface {
	// WriteFile atomically creates or replaces name with the bytes
	// write produces. The file must not become visible under name
	// until write has returned successfully and the data is durable.
	WriteFile(name string, write func(io.Writer) error) error
	// Open opens name for reading. A missing file surfaces an error
	// satisfying errors.Is(err, fs.ErrNotExist).
	Open(name string) (Blob, error)
}

// Blob is an open snapshot file.
type Blob interface {
	io.ReaderAt
	io.Closer
	Size() int64
}

// mappable is the optional fast path a Blob can offer: expose the
// whole file as one read-only byte slice. The returned release func
// must be called exactly once when the mapping is no longer referenced.
type mappable interface {
	Map() (data []byte, release func() error, err error)
}

// Dir is a Backend rooted at a local directory.
type Dir struct {
	path string
}

// NewDir opens (creating if needed) a directory backend.
func NewDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("segment: data dir: %w", err)
	}
	return &Dir{path: path}, nil
}

// WriteFile streams write into name.tmp (1 MiB buffered), fsyncs,
// renames over name, and fsyncs the directory so the rename itself is
// durable before WriteFile returns.
func (d *Dir) WriteFile(name string, write func(io.Writer) error) error {
	if err := validateFileName(name); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	tmp := filepath.Join(d.path, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("segment: create %s: %w", tmp, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := write(bw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: flush %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("segment: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: close %s: %w", tmp, err)
	}
	final := filepath.Join(d.path, name)
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("segment: rename %s: %w", final, err)
	}
	return syncDir(d.path)
}

// syncDir fsyncs the directory entry table; best effort on platforms
// where directories cannot be fsync'd.
func syncDir(path string) error {
	df, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer df.Close()
	// Some filesystems return EINVAL for directory fsync; the rename
	// already ordered data before metadata, so ignore the error.
	_ = df.Sync()
	return nil
}

// Open opens a snapshot file for reading.
func (d *Dir) Open(name string) (Blob, error) {
	if err := validateFileName(name); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	f, err := os.Open(filepath.Join(d.path, name))
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("segment: stat %s: %w", name, err)
	}
	return &fileBlob{f: f, size: st.Size()}, nil
}

// fileBlob is Dir's Blob. Its Map method (mmap_unix.go) satisfies
// mappable on platforms with mmap.
type fileBlob struct {
	f    *os.File
	size int64
}

func (b *fileBlob) ReadAt(p []byte, off int64) (int, error) { return b.f.ReadAt(p, off) }
func (b *fileBlob) Close() error                            { return b.f.Close() }
func (b *fileBlob) Size() int64                             { return b.size }
