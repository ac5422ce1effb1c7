package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
	// mismatch, not as damage: the operator's remedy differs.
	t.Run("version-1-manifest", func(t *testing.T) {
		path := filepath.Join(dir, segment.ManifestName)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer restoreFile(t, path, orig)
		cur := fmt.Sprintf(`"format_version": %d,`, segment.FormatVersion)
		v1 := bytes.Replace(orig, []byte(cur), []byte(`"format_version": 1,`), 1)
		if bytes.Equal(v1, orig) {
			t.Fatalf("manifest has no %s field", cur)
		}
		if err := os.WriteFile(path, v1, 0o644); err != nil {
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

// TestSnapshotEventColumnUnchanged pins the series section's format
// across the packed event plane: the writer unpacks every region back to
// the int64 events column, equal to the classified days, so
// segment.FormatVersion does not move. Deltas ride along.
func TestSnapshotEventColumnUnchanged(t *testing.T) {
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
	snap, err := segment.Open(b, segment.Copy)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	dr, err := snap.Dataset(kindSeries, "weather")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dr.Ints("events")
	if err != nil {
		t.Fatal(err)
	}
	var want []int64
	for _, reg := range arch {
		want = append(want, fsm.EncodeEvents(fsm.ClassifySeries(reg.Days))...)
	}
	if len(got) != len(want) {
		t.Fatalf("events column holds %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// TestRestoreRefusesBadEventSymbols: the restore step that packs the
// events column refuses a symbol outside 0..2 as corrupt, rather than
// restoring a region every later FSM query would fail on.
func TestRestoreRefusesBadEventSymbols(t *testing.T) {
	ids := []int{4, 9}
	sums := make([]synth.DrySpellStats, 2)
	days := []int{3, 6}
	good := []int64{0, 1, 2, 2, 2, 1, 0, 0, 1}
	if _, err := restoredSeriesSet(ids, sums, good, days, 2); err != nil {
		t.Fatalf("valid column refused: %v", err)
	}
	for _, bad := range []int64{3, -1} {
		for _, at := range []int{0, 4, 8} {
			col := append([]int64(nil), good...)
			col[at] = bad
			if _, err := restoredSeriesSet(ids, sums, col, days, 2); !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("symbol %d at %d: err %v, want segment.ErrCorrupt", bad, at, err)
			}
		}
	}
}
