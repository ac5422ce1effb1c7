// Loader restores a snapshot. Two modes:
//
//   - Copy: every section payload is read, checksum-verified, and
//     decoded into freshly allocated slices. Works on any host.
//   - Map: each segment file is mmap'd read-only once and payloads are
//     aliased in place as []float64 / []int64 — zero copies, restore
//     cost is page faults on first touch. Requires a little-endian
//     host and a mappable backend; checksums are still verified (one
//     streaming read over the mapped bytes, no copy).
//
// Every read cross-checks the in-file section header against the
// manifest entry before trusting the payload, so offset corruption is
// caught structurally and payload corruption cryptographically.

package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sync"
	"unsafe"
)

// RestoreMode selects how section payloads reach memory.
type RestoreMode int

const (
	// Copy decodes payloads into fresh slices (portable).
	Copy RestoreMode = iota
	// Map aliases payloads inside read-only mmap'd segment files.
	Map
)

func (m RestoreMode) String() string {
	if m == Map {
		return "map"
	}
	return "copy"
}

// hostLittleEndian reports whether in-memory []float64 layout matches
// the on-disk little-endian payload encoding.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Snapshot is an open snapshot ready for dataset restores. Close it
// when the restored engine is torn down; in Map mode the engine's
// planes alias the mappings, so Close must outlive them.
type Snapshot struct {
	man  *Manifest
	mode RestoreMode
	b    Backend

	mu    sync.Mutex
	files map[string]*openFile
}

type openFile struct {
	blob    Blob
	data    []byte // Map mode only
	release func() error
}

// Open reads and validates the manifest on b. A backend with no
// manifest returns ErrNoSnapshot; Map mode on a big-endian host
// returns ErrMapUnsupported immediately.
func Open(b Backend, mode RestoreMode) (*Snapshot, error) {
	if b == nil {
		return nil, fmt.Errorf("segment: nil backend")
	}
	if mode == Map && !hostLittleEndian {
		return nil, fmt.Errorf("%w: big-endian host", ErrMapUnsupported)
	}
	blob, err := b.Open(ManifestName)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNoSnapshot
		}
		return nil, fmt.Errorf("segment: open manifest: %w", err)
	}
	defer blob.Close()
	raw := make([]byte, blob.Size())
	if _, err := readFullAt(blob, raw, 0); err != nil {
		return nil, fmt.Errorf("%w: manifest read: %v", ErrCorrupt, err)
	}
	man, err := DecodeManifest(raw)
	if err != nil {
		return nil, err
	}
	return &Snapshot{man: man, mode: mode, b: b, files: make(map[string]*openFile)}, nil
}

// Manifest returns the validated manifest (read-only).
func (s *Snapshot) Manifest() *Manifest { return s.man }

// Close releases every mapping and file handle. Idempotent. In Map
// mode nothing restored from this snapshot may be touched afterwards.
func (s *Snapshot) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, of := range s.files {
		if of.release != nil {
			if err := of.release(); err != nil && first == nil {
				first = err
			}
		}
		if err := of.blob.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, name)
	}
	return first
}

// Dataset opens a reader over one dataset's sections. Names are
// scoped per kind, so the lookup key is the pair.
func (s *Snapshot) Dataset(kind, name string) (*DatasetReader, error) {
	for i := range s.man.Datasets {
		if s.man.Datasets[i].Name == name && s.man.Datasets[i].Kind == kind {
			return &DatasetReader{s: s, ds: &s.man.Datasets[i]}, nil
		}
	}
	return nil, fmt.Errorf("%w: dataset %s %q not in manifest", ErrCorrupt, kind, name)
}

// file opens (and in Map mode, maps) a segment file once.
func (s *Snapshot) file(name string) (*openFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if of, ok := s.files[name]; ok {
		return of, nil
	}
	blob, err := s.b.Open(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: segment file %q missing", ErrCorrupt, name)
		}
		return nil, fmt.Errorf("segment: open %s: %w", name, err)
	}
	of := &openFile{blob: blob}
	if s.mode == Map {
		mb, ok := blob.(mappable)
		if !ok {
			blob.Close()
			return nil, fmt.Errorf("%w: backend cannot map", ErrMapUnsupported)
		}
		data, release, err := mb.Map()
		if err != nil {
			blob.Close()
			return nil, err
		}
		of.data, of.release = data, release
	}
	s.files[name] = of
	return of, nil
}

// DatasetReader reads one dataset's sections.
type DatasetReader struct {
	s  *Snapshot
	ds *Dataset
}

// Rows returns the dataset's logical row count.
func (dr *DatasetReader) Rows() int { return dr.ds.Rows }

// section verifies framing and checksum, returning the payload bytes:
// an alias into the mapping in Map mode, a fresh buffer in Copy mode.
func (dr *DatasetReader) section(name, wantType string) ([]byte, *Section, error) {
	var sec *Section
	for i := range dr.ds.Sections {
		if dr.ds.Sections[i].Name == name {
			sec = &dr.ds.Sections[i]
			break
		}
	}
	if sec == nil {
		return nil, nil, fmt.Errorf("%w: dataset %q: section %q missing", ErrCorrupt, dr.ds.Name, name)
	}
	if sec.Type != wantType {
		return nil, nil, fmt.Errorf("%w: dataset %q: section %q is %s, want %s", ErrCorrupt, dr.ds.Name, name, sec.Type, wantType)
	}
	of, err := dr.s.file(dr.ds.File)
	if err != nil {
		return nil, nil, err
	}
	if sec.Offset+sec.Len > of.blob.Size() {
		return nil, nil, fmt.Errorf("%w: dataset %q: section %q extends past file end", ErrCorrupt, dr.ds.Name, name)
	}

	// Framing header lives in the page before the payload; cross-check
	// it against the manifest entry before trusting payload bytes.
	var hdrPage []byte
	if dr.s.mode == Map {
		hdrPage = of.data[sec.Offset-pageSize : sec.Offset]
	} else {
		hdrPage = make([]byte, pageSize)
		if _, err := readFullAt(of.blob, hdrPage, sec.Offset-pageSize); err != nil {
			return nil, nil, fmt.Errorf("%w: dataset %q: section %q header read: %v", ErrCorrupt, dr.ds.Name, name, err)
		}
	}
	hdr, err := parseFramedHeader(hdrPage)
	if err != nil {
		return nil, nil, fmt.Errorf("dataset %q section %q: %w", dr.ds.Name, name, err)
	}
	if hdr.Name != sec.Name || hdr.Type != sec.Type ||
		hdr.Count != uint64(sec.Count) || hdr.PayloadLen != uint64(sec.Len) {
		return nil, nil, fmt.Errorf("%w: dataset %q: section %q header disagrees with manifest", ErrCorrupt, dr.ds.Name, name)
	}

	var payload []byte
	if dr.s.mode == Map {
		payload = of.data[sec.Offset : sec.Offset+sec.Len]
	} else {
		payload = make([]byte, sec.Len)
		if _, err := readFullAt(of.blob, payload, sec.Offset); err != nil {
			return nil, nil, fmt.Errorf("%w: dataset %q: section %q payload read: %v", ErrCorrupt, dr.ds.Name, name, err)
		}
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sec.SHA256 {
		return nil, nil, fmt.Errorf("%w: dataset %q: section %q", ErrChecksum, dr.ds.Name, name)
	}
	return payload, sec, nil
}

// Raw returns an opaque section's bytes (aliased in Map mode).
func (dr *DatasetReader) Raw(name string) ([]byte, error) {
	payload, _, err := dr.section(name, TypeRaw)
	return payload, err
}

// Floats returns a float64 column: decoded in Copy mode, aliased
// zero-copy in Map mode.
func (dr *DatasetReader) Floats(name string) ([]float64, error) {
	payload, sec, err := dr.section(name, TypeF64)
	if err != nil {
		return nil, err
	}
	if sec.Count == 0 {
		return nil, nil
	}
	if dr.s.mode == Map {
		// Page-aligned offset in a page-aligned mapping → 8-byte
		// aligned base; safe to reinterpret on a little-endian host.
		return unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), sec.Count), nil
	}
	out := make([]float64, sec.Count)
	for i := range out {
		out[i] = math.Float64frombits(leUint64(payload[i*8:]))
	}
	return out, nil
}

// Ints returns an int64 column: decoded in Copy mode, aliased
// zero-copy in Map mode.
func (dr *DatasetReader) Ints(name string) ([]int64, error) {
	payload, sec, err := dr.section(name, TypeI64)
	if err != nil {
		return nil, err
	}
	if sec.Count == 0 {
		return nil, nil
	}
	if dr.s.mode == Map {
		return unsafe.Slice((*int64)(unsafe.Pointer(&payload[0])), sec.Count), nil
	}
	out := make([]int64, sec.Count)
	for i := range out {
		out[i] = int64(leUint64(payload[i*8:]))
	}
	return out, nil
}

func leUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// readFullAt reads exactly len(p) bytes at off.
func readFullAt(r io.ReaderAt, p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return n, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}
