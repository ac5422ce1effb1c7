package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/segment"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// sixResults holds one answer per query family.
type sixResults struct {
	linear, scene, fsmRun, fsmDist, geo, know []topk.Item
}

// sixRequests is one request per query family, in sixResults order.
func sixRequests(t *testing.T, pm *linear.ProgressiveModel) [6]Request {
	t.Helper()
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	machine := fsm.FireAnts()
	geoQ := GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10,
		MinGamma: 45,
	}
	return [6]Request{
		{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10},
		{Dataset: "hps", Query: SceneQuery{Model: pm}, K: 10},
		{Dataset: "weather", Query: FSMQuery{Machine: machine, Prefilter: FireAntsPrefilter}, K: 10},
		{Dataset: "weather", Query: FSMDistanceQuery{Target: machine, Horizon: 6}, K: 10},
		{Dataset: "basin", Query: geoQ, K: 10},
		{Dataset: "hps", Query: KnowledgeQuery{Rules: HPSTileRules()}, K: 10},
	}
}

// runSixFamilies executes every query family through the unified Run
// API and returns the ranked items.
func runSixFamilies(t *testing.T, e *Engine, pm *linear.ProgressiveModel) sixResults {
	t.Helper()
	var got [6][]topk.Item
	for i, req := range sixRequests(t, pm) {
		res, err := e.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("%T on %q: %v", req.Query, req.Dataset, err)
		}
		got[i] = res.Items
	}
	return sixResults{
		linear: got[0], scene: got[1], fsmRun: got[2],
		fsmDist: got[3], geo: got[4], know: got[5],
	}
}

func compareSix(t *testing.T, label string, got, want sixResults) {
	t.Helper()
	itemsEqual(t, label+" linear", got.linear, want.linear)
	itemsEqual(t, label+" scene", got.scene, want.scene)
	itemsEqual(t, label+" fsm", got.fsmRun, want.fsmRun)
	itemsEqual(t, label+" fsm-distance", got.fsmDist, want.fsmDist)
	itemsEqual(t, label+" geology", got.geo, want.geo)
	itemsEqual(t, label+" knowledge", got.know, want.know)
}

// openRestored opens a snapshot in the given mode, skipping Map mode
// on hosts that cannot mmap.
func openRestored(t *testing.T, b segment.Backend, mode segment.RestoreMode) *Engine {
	t.Helper()
	re, err := OpenSnapshot(b, RestoreOptions{Mode: mode})
	if err != nil {
		if mode == segment.Map && errors.Is(err, segment.ErrMapUnsupported) {
			t.Skipf("map restore unsupported: %v", err)
		}
		t.Fatalf("restore (%v): %v", mode, err)
	}
	return re
}

// TestSnapshotRoundTripAllFamilies pins the PR's acceptance bar: a
// restored engine answers every query family bit-identically to the
// engine that wrote the snapshot, for shard counts 1/4/7, in both Copy
// and Map restore modes.
func TestSnapshotRoundTripAllFamilies(t *testing.T) {
	a := buildArchives(t)
	for _, shards := range []int{1, 4, 7} {
		e := engineWithArchives(t, shards, a)
		want := runSixFamilies(t, e, a.pm)
		wantDS := e.Datasets()

		dir, err := segment.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Snapshot(context.Background(), dir); err != nil {
			t.Fatalf("shards=%d snapshot: %v", shards, err)
		}

		for _, mode := range []segment.RestoreMode{segment.Copy, segment.Map} {
			re := openRestored(t, dir, mode)
			if re.NumShards() != shards {
				t.Fatalf("restored shards %d, want %d", re.NumShards(), shards)
			}
			label := fmt.Sprintf("shards=%d mode=%v", shards, mode)
			compareSix(t, label, runSixFamilies(t, re, a.pm), want)

			gotDS := re.Datasets()
			if len(gotDS) != len(wantDS) {
				t.Fatalf("%s: %d datasets, want %d", label, len(gotDS), len(wantDS))
			}
			for i := range wantDS {
				if gotDS[i] != wantDS[i] {
					t.Fatalf("%s: dataset %d = %+v, want %+v", label, i, gotDS[i], wantDS[i])
				}
			}
			if err := re.Close(); err != nil {
				t.Fatalf("%s: close: %v", label, err)
			}
			// Close is idempotent.
			if err := re.Close(); err != nil {
				t.Fatalf("%s: second close: %v", label, err)
			}
		}
	}
}

// TestSnapshotRebuildByteIdentical re-snapshots a restored engine and
// requires every file to come out byte-identical: the persisted state
// is closed under snapshot→restore→snapshot, so nothing the format
// carries is lossy.
func TestSnapshotRebuildByteIdentical(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)

	dir1 := t.TempDir()
	b1, err := segment.NewDir(dir1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(context.Background(), b1); err != nil {
		t.Fatal(err)
	}
	re := openRestored(t, b1, segment.Copy)
	dir2 := t.TempDir()
	b2, err := segment.NewDir(dir2)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Snapshot(context.Background(), b2); err != nil {
		t.Fatal(err)
	}

	names1 := dirFileHashes(t, dir1)
	names2 := dirFileHashes(t, dir2)
	if len(names1) != len(names2) {
		t.Fatalf("%d files vs %d", len(names1), len(names2))
	}
	for name, sum := range names1 {
		if names2[name] != sum {
			t.Fatalf("file %s differs between first and second snapshot", name)
		}
	}
}

func dirFileHashes(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][32]byte, len(ents))
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = sha256.Sum256(data)
	}
	return out
}

// TestSnapshotCorruption flips payload bytes, truncates segment files,
// and mangles the manifest: every case must surface a typed error —
// never a wrong answer, never a panic.
func TestSnapshotCorruption(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 2, a)
	dir := t.TempDir()
	b, err := segment.NewDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	man, err := segment.Open(b, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	ds0 := man.Manifest().Datasets[0]
	sec0 := ds0.Sections[0]
	man.Close()

	t.Run("payload-bit-flip", func(t *testing.T) {
		path := filepath.Join(dir, ds0.File)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer restoreFile(t, path, orig)
		mut := append([]byte(nil), orig...)
		mut[sec0.Offset] ^= 0x01
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []segment.RestoreMode{segment.Copy, segment.Map} {
			_, err := OpenSnapshot(b, RestoreOptions{Mode: mode})
			if mode == segment.Map && errors.Is(err, segment.ErrMapUnsupported) {
				continue
			}
			if !errors.Is(err, segment.ErrChecksum) {
				t.Fatalf("mode %v: got %v, want ErrChecksum", mode, err)
			}
		}
	})

	t.Run("truncated-segment", func(t *testing.T) {
		path := filepath.Join(dir, ds0.File)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer restoreFile(t, path, orig)
		if err := os.WriteFile(path, orig[:len(orig)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenSnapshot(b, RestoreOptions{Mode: segment.Copy})
		if !errors.Is(err, segment.ErrCorrupt) && !errors.Is(err, segment.ErrChecksum) {
			t.Fatalf("got %v, want ErrCorrupt or ErrChecksum", err)
		}
	})

	t.Run("missing-segment", func(t *testing.T) {
		path := filepath.Join(dir, ds0.File)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer restoreFile(t, path, orig)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		_, err = OpenSnapshot(b, RestoreOptions{Mode: segment.Copy})
		if !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("garbage-manifest", func(t *testing.T) {
		path := filepath.Join(dir, segment.ManifestName)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer restoreFile(t, path, orig)
		if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = OpenSnapshot(b, RestoreOptions{Mode: segment.Copy})
		if !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	// A snapshot written by an older format is refused as a version
	// mismatch, not as damage: the operator's remedy differs. Version 2
	// stored full mean/min/max pyramid planes and an int64 events
	// column.
	for old := 1; old < segment.FormatVersion; old++ {
		t.Run(fmt.Sprintf("version-%d-manifest", old), func(t *testing.T) {
			path := filepath.Join(dir, segment.ManifestName)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			defer restoreFile(t, path, orig)
			cur := fmt.Sprintf(`"format_version": %d,`, segment.FormatVersion)
			prev := bytes.Replace(orig, []byte(cur), []byte(fmt.Sprintf(`"format_version": %d,`, old)), 1)
			if bytes.Equal(prev, orig) {
				t.Fatalf("manifest has no %s field", cur)
			}
			if err := os.WriteFile(path, prev, 0o644); err != nil {
				t.Fatal(err)
			}
			for _, mode := range []segment.RestoreMode{segment.Copy, segment.Map} {
				_, err := OpenSnapshot(b, RestoreOptions{Mode: mode})
				if mode == segment.Map && errors.Is(err, segment.ErrMapUnsupported) {
					continue
				}
				if !errors.Is(err, segment.ErrVersion) || errors.Is(err, segment.ErrCorrupt) {
					t.Fatalf("mode %v: got %v, want ErrVersion and not ErrCorrupt", mode, err)
				}
			}
		})
	}

	t.Run("no-snapshot", func(t *testing.T) {
		empty, err := segment.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		_, err = OpenSnapshot(empty, RestoreOptions{})
		if !errors.Is(err, segment.ErrNoSnapshot) {
			t.Fatalf("got %v, want ErrNoSnapshot", err)
		}
	})
}

func restoreFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEventPlaneRoundTrip: the series section stores the packed
// event plane itself — every region's base-3 run back to back, deltas
// riding along — and both restore modes adopt it byte for byte.
func TestSnapshotEventPlaneRoundTrip(t *testing.T) {
	arch, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 17, Regions: 31, Days: 97, MeanTempC: 21})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 3})
	defer e.Close()
	if err := e.AddSeries("weather", arch[:25]); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendSeries("weather", arch[25:]); err != nil {
		t.Fatal(err)
	}
	b, err := segment.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, reg := range arch {
		want = fsm.AppendPackedSeries(want, reg.Days)
	}
	snap, err := segment.Open(b, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	dr, err := snap.Dataset(kindSeries, "weather")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := dr.Raw("events"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("events section: %d bytes (err %v), want the %d-byte packed plane", len(got), err, len(want))
	}
	for _, mode := range []segment.RestoreMode{segment.Copy, segment.Map} {
		r := openRestored(t, b, mode)
		var got []byte
		for _, sh := range r.series["weather"].scan {
			for i := range sh.regions {
				p, _ := sh.eventsOf(i)
				got = append(got, p...)
			}
		}
		r.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%v restore: event plane differs from the built one", mode)
		}
	}
}

// TestRestoreRefusesBadEventSymbols: restore adopts the packed plane
// only when every region's run is well-formed — its length, every code
// below 243, no digit past its tail days — and refuses anything else as
// corrupt, rather than restoring a region every later FSM query would
// fail on.
func TestRestoreRefusesBadEventSymbols(t *testing.T) {
	ids := []int{4, 9}
	sums := make([]synth.DrySpellStats, 2)
	days := []int{3, 6}
	// Region 4: 0,1,2 -> 0+3+18. Region 9: 2,2,1,0,0 | 1 -> 2+6+9, 1.
	good := []byte{21, 17, 1}
	if _, err := restoredSeriesSet(ids, sums, good, days, 2); err != nil {
		t.Fatalf("valid plane refused: %v", err)
	}
	bad := [][]byte{
		{243, 17, 1}, {21, 255, 1}, {21, 17, 243}, // a code past 242
		{27, 17, 1}, {21, 17, 3}, // a digit past the tail days
		{21, 17}, {21, 17, 1, 0}, {}, // the wrong length
	}
	for _, p := range bad {
		if _, err := restoredSeriesSet(ids, sums, p, days, 2); !errors.Is(err, segment.ErrCorrupt) {
			t.Fatalf("plane %v: err %v, want segment.ErrCorrupt", p, err)
		}
	}
	if _, err := restoredSeriesSet(ids, sums, good, []int{3, math.MaxInt}, 2); !errors.Is(err, segment.ErrCorrupt) {
		t.Fatalf("huge day count: err %v, want segment.ErrCorrupt", err)
	}
}

// TestSceneSectionSizes pins the scene section layout for bench's scene
// shape, 512² with four bands, built to its apex by default: level 0
// stores W·H·B floats and each coarser w×h level 2·w·h·B, its min/max
// envelopes. No level stores a mean it does not serve.
func TestSceneSectionSizes(t *testing.T) {
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 5, W: 512, H: 512})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := archive.BuildScene("scene", sc.Bands, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 1})
	defer e.Close()
	if err := e.AddScene("scene", arch); err != nil {
		t.Fatal(err)
	}
	mem := segment.NewMem()
	if err := e.Snapshot(context.Background(), mem); err != nil {
		t.Fatal(err)
	}
	snap, err := segment.Open(mem, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	counts := map[string]int{}
	for _, s := range snap.Manifest().Datasets[0].Sections {
		counts[s.Name] = s.Count
	}
	const bands = 4
	want := map[string]int{"pyr0": 512 * 512 * bands}
	for l, side := 1, 256; side >= 1; l, side = l+1, side/2 {
		want[fmt.Sprintf("pyr%d", l)] = 2 * side * side * bands
	}
	if len(want) != 10 {
		t.Fatalf("want table holds %d levels", len(want))
	}
	for name, n := range want {
		if counts[name] != n {
			t.Fatalf("section %s holds %d floats, want %d", name, counts[name], n)
		}
	}
	if _, ok := counts[fmt.Sprintf("pyr%d", len(want))]; ok {
		t.Fatalf("a pyramid plane past the 1x1 apex")
	}
}
