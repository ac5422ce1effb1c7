// Snapshot support: a Scene's raw level (the pyramid planes) is
// serialized as float sections by internal/segment, so the snapshot
// stores only the metadata/feature/semantics levels here — the same
// gob wire shape Encode uses, minus BandData — and SceneFromParts
// marries decoded metadata to a restored planes-backed pyramid without
// re-running BuildScene (no stats, histograms, or pyramid rebuild).

package archive

import (
	"encoding/gob"
	"fmt"
	"io"

	"modelir/internal/pyramid"
)

// EncodeMeta serializes the archive's metadata, feature and semantics
// levels (everything except the raw bands and pyramid).
func (sc *Scene) EncodeMeta(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(sc.metaWire()); err != nil {
		return fmt.Errorf("archive: encode meta: %w", err)
	}
	return nil
}

// metaWire is the scene's wire form without the raw bands.
func (sc *Scene) metaWire() sceneWire {
	return sceneWire{
		Name:      sc.Name,
		W:         sc.W,
		H:         sc.H,
		BandNames: sc.BandNames,
		BandStats: sc.BandStats,
		Tiles:     sc.Tiles,
		Feats:     sc.TileFeatures,
		Labels:    sc.TileLabels,
		Opts:      sc.opts,
	}
}

// SceneFromParts decodes metadata written by EncodeMeta and attaches
// the restored pyramid. The base multiband is left unmaterialized (see
// Base); geometry and band names are cross-checked so a mismatched
// pyramid is refused here rather than failing mid-query.
func SceneFromParts(r io.Reader, pyr *pyramid.MultibandPyramid) (*Scene, error) {
	var wire sceneWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("archive: decode meta: %w", err)
	}
	if wire.W <= 0 || wire.H <= 0 || len(wire.BandNames) == 0 {
		return nil, fmt.Errorf("archive: corrupt meta header")
	}
	if pyr == nil {
		return nil, fmt.Errorf("archive: nil pyramid")
	}
	if pyr.NumBands() != len(wire.BandNames) {
		return nil, fmt.Errorf("archive: pyramid has %d bands, meta %d", pyr.NumBands(), len(wire.BandNames))
	}
	for b, name := range wire.BandNames {
		if pyr.BandName(b) != name {
			return nil, fmt.Errorf("archive: pyramid band %d is %q, meta %q", b, pyr.BandName(b), name)
		}
	}
	if fl := pyr.Flat(0); fl.W != wire.W || fl.H != wire.H {
		return nil, fmt.Errorf("archive: pyramid base %dx%d, meta %dx%d", fl.W, fl.H, wire.W, wire.H)
	}
	if len(wire.Feats) != len(wire.BandNames) {
		return nil, fmt.Errorf("archive: %d feature bands for %d bands", len(wire.Feats), len(wire.BandNames))
	}
	for b := range wire.Feats {
		if len(wire.Feats[b]) != len(wire.Tiles) {
			return nil, fmt.Errorf("archive: band %d has %d tile features for %d tiles", b, len(wire.Feats[b]), len(wire.Tiles))
		}
	}
	return &Scene{
		Name:         wire.Name,
		W:            wire.W,
		H:            wire.H,
		BandNames:    wire.BandNames,
		BandStats:    wire.BandStats,
		Tiles:        wire.Tiles,
		TileFeatures: wire.Feats,
		TileLabels:   wire.Labels,
		pyr:          pyr,
		opts:         wire.Opts,
	}, nil
}
