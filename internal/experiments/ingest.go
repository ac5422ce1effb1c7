// Live-ingest baseline: the machine-readable artifact CI archives as
// BENCH_ingest.json, tracking mixed append+query throughput through
// the batching appender and — the acceptance gate — the
// delta-equivalence bit: an engine that grew its datasets through
// appends (base + delta segments) must answer all six query families
// bit-identically to an engine that registered the full archives up
// front, both while the deltas are live and after compaction. Timings
// are informational on shared CI cores; the bit is the gate.

package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"modelir/internal/archive"
	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
	"modelir/internal/topk"
)

// IngestBaseline is the BENCH_ingest.json artifact.
type IngestBaseline struct {
	Tuples     int `json:"tuples"`
	SceneWH    int `json:"scene_wh"`
	Regions    int `json:"regions"`
	Wells      int `json:"wells"`
	Shards     int `json:"shards"`
	GOMAXPROCS int `json:"gomaxprocs"`

	// AppendRows / AppendCalls / AppendNs measure the mixed-traffic
	// phase: AppendCalls concurrent appender calls carrying AppendRows
	// tuple rows total, racing QueryCalls queries, wall-clocked end to
	// end.
	AppendRows  int   `json:"append_rows"`
	AppendCalls int   `json:"append_calls"`
	QueryCalls  int   `json:"query_calls"`
	AppendNs    int64 `json:"append_ns"`
	// FlushGenerations counts how many delta segments (generation
	// bumps) the appender produced for AppendCalls calls — batching
	// quality: far fewer flushes than calls.
	FlushGenerations uint64 `json:"flush_generations"`
	// CompactNs wall-clocks the synchronous Compact() that folds the
	// surviving deltas into base shards.
	CompactNs int64 `json:"compact_ns"`

	// ResultsIdentical is the acceptance bit: all six families matched
	// the rebuilt-from-scratch engine bit for bit, both with live
	// deltas and after compaction.
	ResultsIdentical bool `json:"results_identical"`
}

// ingestSweep grows an engine under mixed traffic, then verifies
// base+deltas ≡ rebuilt-from-scratch across all six families.
func ingestSweep(cfg Config) (IngestBaseline, error) {
	base := IngestBaseline{
		Tuples: 20_000, SceneWH: 96, Regions: 120, Wells: 100,
		Shards: 4, GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if cfg.Quick {
		base.Tuples, base.SceneWH, base.Regions, base.Wells = 5_000, 32, 40, 30
	}
	ctx := cfg.ctx()

	pts, err := synth.GaussianTuples(51, base.Tuples, 3)
	if err != nil {
		return base, err
	}
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 52, W: base.SceneWH, H: base.SceneWH})
	if err != nil {
		return base, err
	}
	scene, err := archive.BuildScene("hps", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 4})
	if err != nil {
		return base, err
	}
	pm, err := linear.Decompose(linear.HPSRisk(),
		[]float64{0, 0, 0, 0}, []float64{255, 255, 255, 1500}, 2, 4)
	if err != nil {
		return base, err
	}
	weather, err := synth.WeatherArchive(synth.WeatherConfig{Seed: 53, Regions: base.Regions, Days: 365})
	if err != nil {
		return base, err
	}
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 54, Wells: base.Wells})
	if err != nil {
		return base, err
	}

	// The grown engine registers only a prefix of each appendable
	// archive; the rest arrives through the appender under query
	// traffic. Scenes are registered whole (not appendable).
	grown := core.NewEngineWith(core.Options{Shards: base.Shards})
	basePts, baseRegions, baseWells := len(pts)*4/5, len(weather)*4/5, len(wells)*4/5
	for _, step := range []error{
		grown.AddTuples("gauss", pts[:basePts]),
		grown.AddScene("hps", scene),
		grown.AddSeries("weather", weather[:baseRegions]),
		grown.AddWells("basin", wells[:baseWells]),
	} {
		if step != nil {
			return base, step
		}
	}

	// Mixed traffic: concurrent small tuple appends through the
	// batching appender racing repeated queries against another
	// dataset, plus one writer each for the series and well tails.
	ap := core.NewAppender(grown, core.AppenderOptions{})
	genBefore := datasetGen(grown, "gauss")
	const writers = 4
	chunk := 16
	tail := pts[basePts:]
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	calls := 0
	for lo := 0; lo < len(tail); lo += chunk {
		hi := lo + chunk
		if hi > len(tail) {
			hi = len(tail)
		}
		calls++
		wg.Add(1)
		go func(rows [][]float64, w int) {
			defer wg.Done()
			if err := ap.AppendTuples(ctx, "gauss", rows); err != nil {
				fail(fmt.Errorf("append writer %d: %w", w, err))
			}
		}(tail[lo:hi], calls)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ap.AppendSeries(ctx, "weather", weather[baseRegions:]); err != nil {
			fail(fmt.Errorf("series append: %w", err))
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ap.AppendWells(ctx, "basin", wells[baseWells:]); err != nil {
			fail(fmt.Errorf("wells append: %w", err))
		}
	}()
	queries := 0
	for q := 0; q < writers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if _, err := grown.Run(ctx, core.Request{
					Dataset: "hps", Query: core.KnowledgeQuery{Rules: core.HPSTileRules()}, K: 10,
				}); err != nil {
					fail(fmt.Errorf("query under traffic: %w", err))
					return
				}
			}
		}()
		queries += 8
	}
	wg.Wait()
	ap.Close()
	base.AppendNs = time.Since(start).Nanoseconds()
	base.AppendRows = len(tail)
	base.AppendCalls = calls + 2
	base.QueryCalls = queries
	base.FlushGenerations = datasetGen(grown, "gauss") - genBefore
	if firstErr != nil {
		return base, firstErr
	}

	// The reference: everything registered up front.
	full := core.NewEngineWith(core.Options{Shards: base.Shards})
	for _, step := range []error{
		full.AddTuples("gauss", pts),
		full.AddScene("hps", scene),
		full.AddSeries("weather", weather),
		full.AddWells("basin", wells),
	} {
		if step != nil {
			return base, step
		}
	}
	want, err := persistFamilies(ctx, full, pm)
	if err != nil {
		return base, err
	}

	// The racing writers land the tail chunks in scheduler order, so a
	// tail row's ID in grown is not its index in pts. toRef is that
	// permutation, recovered from the engines themselves; with it the
	// tuple family is compared on exact IDs like the other five.
	toRef, err := tailIDMap(ctx, grown, full, basePts, chunk)
	if err != nil {
		return base, err
	}
	identical := true
	check := func(label string) error {
		got, err := persistFamilies(ctx, grown, pm)
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		for i, it := range got[0] {
			got[0][i].ID = toRef[it.ID]
		}
		for i := range want {
			if !itemsMatch(got[i], want[i]) {
				identical = false
			}
		}
		return nil
	}
	if err := check("live deltas"); err != nil {
		return base, err
	}
	start = time.Now()
	grown.Compact()
	base.CompactNs = time.Since(start).Nanoseconds()
	if err := check("compacted"); err != nil {
		return base, err
	}
	base.ResultsIdentical = identical
	return base, grown.Close()
}

// tailIDMap maps every "gauss" tuple ID of grown to the ID the same row
// has in full, which registered the rows in slice order. It ranks all
// rows of both engines under one tie-free model and joins the two
// rankings on score. The IDs grown assigned must be a permutation of
// full's that fixes the base rows and moves each appended chunk as one
// contiguous block; anything else is a wrong delta offset and an error.
func tailIDMap(ctx context.Context, grown, full *core.Engine, basePts, chunk int) ([]int64, error) {
	lm, err := linear.New([]string{"a", "b", "c"}, []float64{0.7, 1.3, -0.9}, 0)
	if err != nil {
		return nil, err
	}
	rows := 0
	for _, ds := range full.Datasets() {
		if ds.Name == "gauss" {
			rows = ds.Rows
		}
	}
	rank := func(e *core.Engine) ([]topk.Item, error) {
		res, err := e.Run(ctx, core.Request{Dataset: "gauss", Query: core.LinearQuery{Model: lm}, K: rows})
		if err == nil && len(res.Items) != rows {
			err = fmt.Errorf("tail id map: ranked %d of %d rows", len(res.Items), rows)
		}
		return res.Items, err
	}
	g, err := rank(grown)
	if err != nil {
		return nil, err
	}
	f, err := rank(full)
	if err != nil {
		return nil, err
	}
	toRef := make([]int64, rows)
	for i := range toRef {
		toRef[i] = -1
	}
	for i := range f {
		if i > 0 && f[i].Score == f[i-1].Score {
			return nil, fmt.Errorf("tail id map: rows %d and %d tie under the join model", f[i-1].ID, f[i].ID)
		}
		id := g[i].ID
		if g[i].Score != f[i].Score || id < 0 || id >= int64(rows) || toRef[id] != -1 {
			return nil, fmt.Errorf("tail id map: rank %d: grown (%d, %v) vs full (%d, %v)", i, id, g[i].Score, f[i].ID, f[i].Score)
		}
		toRef[id] = f[i].ID
	}
	for id, ref := range toRef {
		switch {
		case id < basePts && ref != int64(id):
			return nil, fmt.Errorf("tail id map: base row %d answers as row %d", id, ref)
		case id >= basePts && (ref < int64(basePts) || (int(ref)-basePts)%chunk != 0 && toRef[id-1] != ref-1):
			return nil, fmt.Errorf("tail id map: appended row %d landed at %d, outside its chunk", ref, id)
		}
	}
	return toRef, nil
}

// datasetGen reads one dataset's cache generation from the engine's
// dataset listing.
func datasetGen(e *core.Engine, name string) uint64 {
	for _, ds := range e.Datasets() {
		if ds.Name == name {
			return ds.Gen
		}
	}
	return 0
}

// WriteIngestBaseline runs the live-ingest sweep and writes the JSON
// baseline (the BENCH_ingest.json artifact produced by `benchtab
// -ingestjson`).
func WriteIngestBaseline(cfg Config, path string) error {
	base, err := ingestSweep(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
