// Package segment implements durable columnar segments: the snapshot
// format that persists an engine's *built* serving state — norm-ordered
// colstore blocks and zone maps, flat pyramid planes, FSM event planes,
// well strata columns, scene tile matrices — so a process can restore
// to serving-ready without re-running any index build.
//
// A snapshot is a set of segment files plus one JSON manifest, all
// living behind a narrow Backend interface (a local directory first;
// the interface is small enough that an object store fits later).
// Each dataset gets one segment file holding its sections back to
// back. Every section is page-aligned:
//
//	offset O (page-aligned): uint64 LE header length, then a
//	    canon-framed section header (name, type, count, payload len);
//	    the header must fit in one page
//	offset O+4096:           the payload, little-endian fixed-width
//	    (f64 = IEEE-754 bit patterns, i64 = two's complement, raw =
//	    verbatim bytes), zero-padded to the next page boundary
//
// Page alignment plus fixed little-endian width is what makes the Map
// restore mode possible: on a little-endian host a mapped payload can
// be aliased directly as []float64 / []int64 with zero copies, and the
// engine serves straight out of the page cache. The Copy mode decodes
// the same bytes portably on any host.
//
// Integrity is layered: the manifest records a SHA-256 per section
// payload (verified on every read, in both modes), and the in-file
// header duplicates the manifest's name/type/count/len so a manifest
// pointing into the wrong file region is caught even when the bytes
// there happen to be well-formed. Corruption always surfaces as a
// typed error — never a wrong answer.
package segment

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// FormatVersion is the current snapshot format version. A manifest or
// section header carrying any other version is refused with ErrVersion,
// so it changes whenever any dataset kind's section layout does.
const FormatVersion = 3

// ManifestName is the backend file name of the snapshot manifest. It
// is written last, atomically, so a directory either has a complete
// snapshot or none.
const ManifestName = "MANIFEST.json"

// pageSize is the section alignment. 4096 matches the page size of
// every platform the Map mode supports, and guarantees the 8-byte
// alignment the float64/int64 alias casts need.
const pageSize = 4096

// Section payload types.
const (
	// TypeRaw is an opaque byte payload (count = byte length).
	TypeRaw = "raw"
	// TypeF64 is a little-endian float64 column (count = elements).
	TypeF64 = "f64"
	// TypeI64 is a little-endian int64 column (count = elements).
	TypeI64 = "i64"
)

// Typed errors. Every decode failure wraps exactly one of these so
// callers can distinguish "no snapshot yet" from "snapshot damaged".
var (
	// ErrNoSnapshot reports a backend with no manifest.
	ErrNoSnapshot = errors.New("segment: no snapshot")
	// ErrVersion reports a snapshot written by an incompatible format
	// version.
	ErrVersion = errors.New("segment: unsupported snapshot format version")
	// ErrCorrupt reports a structurally invalid manifest, header, or
	// section layout.
	ErrCorrupt = errors.New("segment: corrupt snapshot")
	// ErrChecksum reports a section whose payload bytes do not match
	// the manifest's SHA-256.
	ErrChecksum = errors.New("segment: section checksum mismatch")
	// ErrMapUnsupported reports that RestoreMode Map cannot work here:
	// the platform has no mmap support or the host is not
	// little-endian.
	ErrMapUnsupported = errors.New("segment: map restore unsupported on this host")
)

// Manifest is the snapshot's table of contents.
type Manifest struct {
	FormatVersion int       `json:"format_version"`
	Shards        int       `json:"shards"`
	Datasets      []Dataset `json:"datasets"`
}

// Dataset records one dataset's segment file and its sections.
type Dataset struct {
	Name     string    `json:"name"`
	Kind     string    `json:"kind"`
	Rows     int       `json:"rows"`
	File     string    `json:"file"`
	Sections []Section `json:"sections"`
}

// Section records one page-aligned payload inside a segment file.
// Offset and Len describe the payload only; the framing header sits in
// the page immediately before Offset.
type Section struct {
	Name   string `json:"name"`
	Type   string `json:"type"`
	Count  int    `json:"count"`
	Offset int64  `json:"offset"`
	Len    int64  `json:"len"`
	SHA256 string `json:"sha256"`
}

// EncodeManifest serializes m as indented JSON with a trailing
// newline. The writer sorts datasets by name before calling this, so
// equal snapshots produce byte-identical manifests.
func EncodeManifest(m *Manifest) ([]byte, error) {
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("segment: encode manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeManifest parses and validates a manifest. Unknown JSON fields
// are rejected so a manifest from a future minor revision fails loudly
// rather than half-loading.
func DecodeManifest(data []byte) (*Manifest, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: manifest: trailing data", ErrCorrupt)
	}
	if err := validateManifest(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// validateManifest enforces every structural invariant the loader
// indexes by, so a corrupt-but-parseable manifest can never drive an
// out-of-range read or an oversized allocation downstream.
func validateManifest(m *Manifest) error {
	if m == nil {
		return fmt.Errorf("%w: nil manifest", ErrCorrupt)
	}
	if m.FormatVersion != FormatVersion {
		return fmt.Errorf("%w: got %d, want %d", ErrVersion, m.FormatVersion, FormatVersion)
	}
	if m.Shards < 1 {
		return fmt.Errorf("%w: manifest shards %d", ErrCorrupt, m.Shards)
	}
	seenDS := make(map[string]bool, len(m.Datasets))
	for di := range m.Datasets {
		ds := &m.Datasets[di]
		if ds.Name == "" {
			return fmt.Errorf("%w: dataset %d: empty name", ErrCorrupt, di)
		}
		if ds.Kind == "" {
			return fmt.Errorf("%w: dataset %q: empty kind", ErrCorrupt, ds.Name)
		}
		// Dataset names are scoped per kind (the engine allows the same
		// name for a tuple set and a scene), so uniqueness is on the
		// (kind, name) pair.
		dsKey := ds.Kind + "\x00" + ds.Name
		if seenDS[dsKey] {
			return fmt.Errorf("%w: duplicate dataset %s %q", ErrCorrupt, ds.Kind, ds.Name)
		}
		seenDS[dsKey] = true
		if ds.Rows < 0 {
			return fmt.Errorf("%w: dataset %q: rows %d", ErrCorrupt, ds.Name, ds.Rows)
		}
		if err := validateFileName(ds.File); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrCorrupt, ds.Name, err)
		}
		seenSec := make(map[string]bool, len(ds.Sections))
		for si := range ds.Sections {
			s := &ds.Sections[si]
			if s.Name == "" {
				return fmt.Errorf("%w: dataset %q: section %d: empty name", ErrCorrupt, ds.Name, si)
			}
			if seenSec[s.Name] {
				return fmt.Errorf("%w: dataset %q: duplicate section %q", ErrCorrupt, ds.Name, s.Name)
			}
			seenSec[s.Name] = true
			if s.Count < 0 || s.Len < 0 {
				return fmt.Errorf("%w: section %q: negative size", ErrCorrupt, s.Name)
			}
			switch s.Type {
			case TypeRaw:
				if int64(s.Count) != s.Len {
					return fmt.Errorf("%w: raw section %q: count %d != len %d", ErrCorrupt, s.Name, s.Count, s.Len)
				}
			case TypeF64, TypeI64:
				if int64(s.Count)*8 != s.Len {
					return fmt.Errorf("%w: %s section %q: count %d, len %d", ErrCorrupt, s.Type, s.Name, s.Count, s.Len)
				}
			default:
				return fmt.Errorf("%w: section %q: unknown type %q", ErrCorrupt, s.Name, s.Type)
			}
			// The framing header occupies the page before the payload,
			// so a payload can never start before offset pageSize.
			if s.Offset < pageSize || s.Offset%pageSize != 0 {
				return fmt.Errorf("%w: section %q: offset %d not page-aligned", ErrCorrupt, s.Name, s.Offset)
			}
			if len(s.SHA256) != 64 {
				return fmt.Errorf("%w: section %q: bad sha256 %q", ErrCorrupt, s.Name, s.SHA256)
			}
			for _, c := range s.SHA256 {
				if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
					return fmt.Errorf("%w: section %q: bad sha256 %q", ErrCorrupt, s.Name, s.SHA256)
				}
			}
		}
	}
	return nil
}

// validateFileName rejects names that could escape the backend's
// namespace: path separators, "..", empty names. Segment files are
// generated (ds-0000.seg), so anything fancier is corruption.
func validateFileName(name string) error {
	if name == "" || name == "." || name == ".." {
		return fmt.Errorf("bad file name %q", name)
	}
	if strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("bad file name %q", name)
	}
	return nil
}
