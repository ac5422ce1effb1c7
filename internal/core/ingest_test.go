// Live-ingest pins: base+delta equivalence across all query families
// and shard counts, appender coalescing, reserve/commit registration,
// snapshot consistency under concurrent appends, and per-dataset cache
// invalidation under -race traffic.

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelir/internal/colstore"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/segment"
	"modelir/internal/synth"
)

// TestAppendTuplesAtExplicitBase pins the cluster-ingest primitive: a
// delta appended at an explicit global base beyond the watermark scores
// with IDs at that base (the row space may hold holes), an overlapping
// base is refused, and the pinned set survives compaction untouched —
// compacting would reassign the IDs the base encodes.
func TestAppendTuplesAtExplicitBase(t *testing.T) {
	pts, err := synth.GaussianTuples(9, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := synth.GaussianTuples(10, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 2})
	if err := e.AddTuples("g", pts); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendTuplesAt("g", 20, tail); err != nil {
		t.Fatal(err)
	}

	lm, err := linear.New([]string{"a", "b", "c"}, []float64{1, -0.5, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "g", Query: LinearQuery{Model: lm}, K: 50}
	res, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 15 {
		t.Fatalf("items = %d, want 15 (10 base + 5 delta)", len(res.Items))
	}
	for _, it := range res.Items {
		if !(it.ID < 10 || (it.ID >= 20 && it.ID < 25)) {
			t.Fatalf("item ID %d outside [0,10) ∪ [20,25)", it.ID)
		}
	}

	// Bases at or below existing rows would collide with assigned IDs.
	if err := e.AppendTuplesAt("g", 15, tail); err == nil {
		t.Fatal("overlapping base accepted")
	}
	if err := e.AppendTuplesAt("g", -1, tail); err == nil {
		t.Fatal("negative base accepted")
	}

	// The explicit base pinned the set: compaction must leave the delta
	// (and every ID) exactly where it is.
	e.Compact()
	for _, ds := range e.Datasets() {
		if ds.Name == "g" && ds.Deltas != 1 {
			t.Fatalf("deltas after Compact = %d, want 1 (pinned set must not compact)", ds.Deltas)
		}
	}
	again, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Items {
		if again.Items[i] != res.Items[i] {
			t.Fatalf("answers changed across Compact at pos %d", i)
		}
	}
}

// settle waits out the engine's background compactors.
func settle(e *Engine) { e.compactWG.Wait() }

// deltaLayout is one way of growing the test archives through appends:
// register num/den of every appendable archive up front (scenes are
// registered whole — not appendable), optionally round-trip that engine
// through a snapshot so the bases are restored ones, then feed the rest
// through Append* in `chunks` near-equal chunks. With appender set the
// chunks go through an Appender instead, while readers run all six
// families against the growing engine.
type deltaLayout struct {
	num, den, chunks int
	restored         bool
	appender         bool
}

func (l deltaLayout) String() string {
	return fmt.Sprintf("base=%d/%d chunks=%d restored=%v appender=%v", l.num, l.den, l.chunks, l.restored, l.appender)
}

func (l deltaLayout) grow(t *testing.T, shards int, a testArchives) *Engine {
	t.Helper()
	e := NewEngineWith(Options{Shards: shards})
	basePts, baseRegions, baseWells := len(a.pts)*l.num/l.den, len(a.arch)*l.num/l.den, len(a.wells)*l.num/l.den
	if err := e.AddTuples("gauss", a.pts[:basePts]); err != nil {
		t.Fatal(err)
	}
	if err := e.AddScene("hps", a.scene); err != nil {
		t.Fatal(err)
	}
	if err := e.AddSeries("weather", a.arch[:baseRegions]); err != nil {
		t.Fatal(err)
	}
	if err := e.AddWells("basin", a.wells[:baseWells]); err != nil {
		t.Fatal(err)
	}
	if l.restored {
		dir, err := segment.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Snapshot(context.Background(), dir); err != nil {
			t.Fatal(err)
		}
		e = openRestored(t, dir, segment.Copy)
	}
	// One tail per appendable family, appended in row order.
	tails := []struct {
		n, base int
		add     func(lo, hi int) error
	}{
		{len(a.pts), basePts, func(lo, hi int) error { return e.AppendTuples("gauss", a.pts[lo:hi]) }},
		{len(a.arch), baseRegions, func(lo, hi int) error { return e.AppendSeries("weather", a.arch[lo:hi]) }},
		{len(a.wells), baseWells, func(lo, hi int) error { return e.AppendWells("basin", a.wells[lo:hi]) }},
	}
	chunked := func(n, base int, appendChunk func(lo, hi int) error) error {
		rest := n - base
		for c := 0; c < l.chunks; c++ {
			lo := base + rest*c/l.chunks
			hi := base + rest*(c+1)/l.chunks
			if lo == hi {
				continue
			}
			if err := appendChunk(lo, hi); err != nil {
				return err
			}
		}
		return nil
	}
	if !l.appender {
		for _, tl := range tails {
			if err := chunked(tl.n, tl.base, tl.add); err != nil {
				t.Fatal(err)
			}
		}
		settle(e)
		return e
	}

	// Under traffic: one appender goroutine per family, so each
	// family's chunks still land in row order and take the IDs the
	// synchronous layouts give them, racing two readers that run every
	// family until the last chunk has landed.
	ctx := context.Background()
	ap := NewAppender(e, AppenderOptions{})
	tails[0].add = func(lo, hi int) error { return ap.AppendTuples(ctx, "gauss", a.pts[lo:hi]) }
	tails[1].add = func(lo, hi int) error { return ap.AppendSeries(ctx, "weather", a.arch[lo:hi]) }
	tails[2].add = func(lo, hi int) error { return ap.AppendWells(ctx, "basin", a.wells[lo:hi]) }
	reqs := sixRequests(t, a.pm)
	const readers = 2
	errs := make([]error, len(tails)+readers)
	var writers, all sync.WaitGroup
	for i, tl := range tails {
		writers.Add(1)
		all.Add(1)
		go func(i, n, base int, add func(lo, hi int) error) {
			defer all.Done()
			defer writers.Done()
			errs[i] = chunked(n, base, add)
		}(i, tl.n, tl.base, tl.add)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		all.Add(1)
		go func(slot int) {
			defer all.Done()
			for {
				for _, req := range reqs {
					if _, err := e.Run(ctx, req); err != nil {
						errs[slot] = fmt.Errorf("%T on %q under appends: %w", req.Query, req.Dataset, err)
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(len(tails) + r)
	}
	writers.Wait()
	close(done)
	all.Wait()
	ap.Close()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	settle(e)
	return e
}

// TestDeltaEquivalenceAllFamilies pins the tentpole invariant: an
// engine that grew its datasets through appends (base + live delta
// segments) answers every query family bit-identically to an engine
// that registered the full archives up front — for shard counts 1, 4
// and 7, both before and after Compact. The layouts cover three flat
// deltas (too few for the tier rule) and 21 chunks, which the
// background compactor leaves as a multi-tier delta list, over raw-row
// and over snapshot-restored bases, and 21 chunks flushed by an
// Appender while queries race the appends.
func TestDeltaEquivalenceAllFamilies(t *testing.T) {
	a := buildArchives(t)
	layouts := []deltaLayout{
		{num: 4, den: 5, chunks: 3},
		{num: 1, den: 2, chunks: 21},
		{num: 1, den: 2, chunks: 21, restored: true},
		{num: 1, den: 2, chunks: 21, appender: true},
	}
	for _, shards := range []int{1, 4, 7} {
		full := engineWithArchives(t, shards, a)
		want := runSixFamilies(t, full, a.pm)
		for _, l := range layouts {
			label := fmt.Sprintf("shards=%d %v", shards, l)
			grown := l.grow(t, shards, a)
			for _, ds := range grown.Datasets() {
				if ds.Kind == kindScenes {
					continue
				}
				// 21 near-equal chunks count in base 4 up to 16 + 4 + 1;
				// unequal ones may leave up to three per size class.
				if tiered := ds.Compactions > 0; tiered != (l.chunks == 21) || ds.Deltas < 1 || ds.Deltas > 9 {
					t.Fatalf("%s: %s/%s holds %d deltas after %d compactions", label, ds.Kind, ds.Name, ds.Deltas, ds.Compactions)
				}
			}
			compareSix(t, label+" deltas", runSixFamilies(t, grown, a.pm), want)

			// Compact folds the deltas away — into the base where the
			// registration rows are at hand, into one delta on restored
			// bases — without changing a single answer.
			grown.Compact()
			for _, ds := range grown.Datasets() {
				if left := ds.Deltas; (l.restored && left > 1) || (!l.restored && left != 0) {
					t.Fatalf("%s: %s/%s still holds %d deltas after Compact", label, ds.Kind, ds.Name, left)
				}
			}
			compareSix(t, label+" compacted", runSixFamilies(t, grown, a.pm), want)
			if err := grown.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestAppendValidation pins the append error surface: unknown datasets
// and empty payloads are rejected without side effects.
func TestAppendValidation(t *testing.T) {
	e := NewEngine()
	if err := e.AppendTuples("nope", [][]float64{{1}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append to unknown dataset: %v", err)
	}
	if err := e.AppendSeries("nope", []synth.RegionSeries{{}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append series to unknown dataset: %v", err)
	}
	if err := e.AppendWells("nope", []synth.WellLog{{}}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("append wells to unknown dataset: %v", err)
	}
	if err := e.AddTuples("t", [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendTuples("t", nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if ds := e.Datasets(); ds[0].Gen != 1 {
		t.Fatalf("failed appends bumped the generation to %d", ds[0].Gen)
	}
}

// TestAppendWidthMismatch pins that a tuple delta narrower or wider
// than its dataset is refused with ErrWidthMismatch by both append
// paths and leaves the dataset untouched: same generation, same rows,
// and linear reads still answer.
func TestAppendWidthMismatch(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("t", [][]float64{{1, 2, 3}, {4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	lm := testLinearModel(t)
	req := Request{Dataset: "t", Query: LinearQuery{Model: lm}, K: 5}
	want, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for label, appendRows := range map[string]func() error{
		"narrower":    func() error { return e.AppendTuples("t", [][]float64{{7, 8}}) },
		"wider":       func() error { return e.AppendTuples("t", [][]float64{{7, 8, 9, 10}}) },
		"narrower-at": func() error { return e.AppendTuplesAt("t", 100, [][]float64{{7, 8}}) },
	} {
		if err := appendRows(); !errors.Is(err, ErrWidthMismatch) {
			t.Fatalf("%s append: err %v, want ErrWidthMismatch", label, err)
		}
	}
	if ds := e.Datasets(); ds[0].Gen != 1 || ds[0].Rows != 2 {
		t.Fatalf("refused appends changed the dataset: %+v", ds[0])
	}
	got, err := e.Run(context.Background(), req)
	if err != nil {
		t.Fatalf("linear read after refused appends: %v", err)
	}
	itemsEqual(t, "after refused appends", got.Items, want.Items)
	if err := e.AppendTuples("t", [][]float64{{7, 8, 9}}); err != nil {
		t.Fatalf("same-width append after refusals: %v", err)
	}
}

// holdFirstBuild makes the first tuple store build e's write path runs
// wait for release; building is closed once that build has started.
func holdFirstBuild(e *Engine) (building, release chan struct{}) {
	building, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.onIndex = func(int) {
		once.Do(func() {
			close(building)
			<-release
		})
	}
	return building, release
}

// waitQueued returns once n tuple callers wait behind the running
// flush of dataset name.
func waitQueued(ap *Appender, name string, n int) {
	for {
		ap.mu.Lock()
		queued := len(ap.tuples.queued[name])
		ap.mu.Unlock()
		if queued == n {
			return
		}
		runtime.Gosched()
	}
}

// TestAppenderCoalesces pins group commit: nineteen five-row callers
// that arrive while a first caller's flush is building queue behind it
// and land, when it ends, as ONE more delta segment and ONE more
// generation bump.
func TestAppenderCoalesces(t *testing.T) {
	base, err := synth.GaussianTuples(3, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Two delta segments are no run for the tier rule, so both
	// deterministically survive.
	e := NewEngine()
	if err := e.AddTuples("gauss", base); err != nil {
		t.Fatal(err)
	}
	building, release := holdFirstBuild(e)
	ap := NewAppender(e, AppenderOptions{})
	defer ap.Close()

	var wg sync.WaitGroup
	errs := make([]error, 20)
	appendFive := func(g int) {
		defer wg.Done()
		rows := make([][]float64, 5)
		for i := range rows {
			rows[i] = []float64{float64(g), float64(i), 0}
		}
		errs[g] = ap.AppendTuples(context.Background(), "gauss", rows)
	}
	wg.Add(1)
	go appendFive(0)
	<-building
	for g := 1; g < 20; g++ {
		wg.Add(1)
		go appendFive(g)
	}
	waitQueued(ap, "gauss", 19)
	close(release)
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", g, err)
		}
	}
	ds := e.Datasets()[0]
	if ds.Rows != len(base)+100 {
		t.Fatalf("rows = %d, want %d", ds.Rows, len(base)+100)
	}
	if ds.Gen != 3 {
		t.Fatalf("gen = %d, want 3 (the first flush and one coalesced flush)", ds.Gen)
	}
	if ds.Deltas != 2 {
		t.Fatalf("deltas = %d, want 2", ds.Deltas)
	}
}

// TestAppenderLoneCallerNoWait pins that a caller with no flush to
// queue behind applies its rows at once: 100 sequential single-row
// appends finish in under 100 ms, which any batching window of 1 ms or
// more would miss.
func TestAppenderLoneCallerNoWait(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("gauss", [][]float64{{0, 0}}); err != nil {
		t.Fatal(err)
	}
	ap := NewAppender(e, AppenderOptions{})
	defer ap.Close()
	start := time.Now()
	for i := 1; i <= 100; i++ {
		if err := ap.AppendTuples(context.Background(), "gauss", [][]float64{{float64(i), 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if d := time.Since(start); d >= 100*time.Millisecond {
		t.Fatalf("100 lone appends took %v, want under 100ms", d)
	}
	if rows := e.Datasets()[0].Rows; rows != 101 {
		t.Fatalf("rows = %d, want 101", rows)
	}
}

// TestAppenderIsolatesRefusedRows pins the per-caller outcome of a
// coalesced batch: a valid caller and one with a non-finite row queue
// behind the same flush, the engine refuses their merged batch, and
// only the bad caller fails; the valid caller's rows land.
func TestAppenderIsolatesRefusedRows(t *testing.T) {
	ctx := context.Background()
	e := NewEngine()
	if err := e.AddTuples("gauss", [][]float64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	building, release := holdFirstBuild(e)
	ap := NewAppender(e, AppenderOptions{})
	defer ap.Close()
	first, valid, bad := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() { first <- ap.AppendTuples(ctx, "gauss", [][]float64{{2, 2}}) }()
	<-building
	go func() { valid <- ap.AppendTuples(ctx, "gauss", [][]float64{{3, 3}, {4, 4}}) }()
	go func() { bad <- ap.AppendTuples(ctx, "gauss", [][]float64{{math.NaN(), 5}}) }()
	waitQueued(ap, "gauss", 2)
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first caller: %v", err)
	}
	if err := <-valid; err != nil {
		t.Fatalf("valid caller batched with a refused one: %v", err)
	}
	if err := <-bad; !errors.Is(err, colstore.ErrRows) {
		t.Fatalf("non-finite caller: %v, want colstore.ErrRows", err)
	}
	if rows := e.Datasets()[0].Rows; rows != 4 {
		t.Fatalf("rows = %d, want 4 (base, first caller, valid caller)", rows)
	}
}

// TestAppenderErrorsAndClose pins the per-caller error contract: a
// flush against an unknown dataset fails every waiter in that window
// with the engine's error, and appends after Close are rejected.
func TestAppenderErrorsAndClose(t *testing.T) {
	e := NewEngine()
	ap := NewAppender(e, AppenderOptions{})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = ap.AppendTuples(context.Background(), "ghost", [][]float64{{1}, {2}})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrUnknownDataset) {
			t.Fatalf("waiter %d: %v, want ErrUnknownDataset", g, err)
		}
	}
	ap.Close()
	if err := ap.AppendTuples(context.Background(), "ghost", [][]float64{{1}}); !errors.Is(err, ErrAppenderClosed) {
		t.Fatalf("append after Close: %v", err)
	}
	ap.Close() // idempotent
}

// TestAppenderContextCancel pins the waiting contract: a caller whose
// context ends while its rows are still queued behind a running flush
// takes them back and returns the context's error, and the rows never
// land.
func TestAppenderContextCancel(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("gauss", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	building, release := holdFirstBuild(e)
	ap := NewAppender(e, AppenderOptions{})
	defer ap.Close()
	first := make(chan error, 1)
	go func() { first <- ap.AppendTuples(context.Background(), "gauss", [][]float64{{2}}) }()
	<-building
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- ap.AppendTuples(ctx, "gauss", [][]float64{{3}}) }()
	waitQueued(ap, "gauss", 1)
	cancel()
	if err := <-queued; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller: %v", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first caller: %v", err)
	}
	// A later append must land alone, not carry the withdrawn row.
	if err := ap.AppendTuples(context.Background(), "gauss", [][]float64{{4}}); err != nil {
		t.Fatalf("later caller: %v", err)
	}
	if ds := e.Datasets()[0]; ds.Rows != 3 || ds.Gen != 3 {
		t.Fatalf("rows = %d, gen = %d, want 3 and 3 (the cancelled row never lands)", ds.Rows, ds.Gen)
	}
}

// TestAppenderHandOffAfterCancel pins the hand-off past a withdrawn
// caller: the head of the queue cancels, and the caller behind it still
// leads the next batch once the running flush ends, after which the
// dataset has no flush running.
func TestAppenderHandOffAfterCancel(t *testing.T) {
	e := NewEngine()
	if err := e.AddTuples("gauss", [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	building, release := holdFirstBuild(e)
	ap := NewAppender(e, AppenderOptions{})
	defer ap.Close()
	first, head, tail := make(chan error, 1), make(chan error, 1), make(chan error, 1)
	go func() { first <- ap.AppendTuples(context.Background(), "gauss", [][]float64{{2}}) }()
	<-building
	ctx, cancel := context.WithCancel(context.Background())
	go func() { head <- ap.AppendTuples(ctx, "gauss", [][]float64{{3}}) }()
	waitQueued(ap, "gauss", 1)
	go func() { tail <- ap.AppendTuples(context.Background(), "gauss", [][]float64{{4}}) }()
	waitQueued(ap, "gauss", 2)
	cancel()
	if err := <-head; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled head: %v", err)
	}
	close(release)
	for what, ch := range map[string]chan error{"first": first, "tail": tail} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("%s caller: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s caller still waiting 10s after the flush ahead of it ended", what)
		}
	}
	if ds := e.Datasets()[0]; ds.Rows != 3 || ds.Gen != 3 {
		t.Fatalf("rows = %d, gen = %d, want 3 and 3", ds.Rows, ds.Gen)
	}
	ap.mu.Lock()
	running := len(ap.tuples.queued)
	ap.mu.Unlock()
	if running != 0 {
		t.Fatalf("%d flushes still marked running", running)
	}
}

// TestConcurrentDuplicateRegistration pins the reserve/commit
// registration path: many goroutines racing to register the same name
// produce exactly one success and ErrDuplicateDataset everywhere else
// — the expensive set build never runs under the engine lock, and no
// goroutine's build overwrites another's.
func TestConcurrentDuplicateRegistration(t *testing.T) {
	pts, err := synth.GaussianTuples(7, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 4})
	// A warm entry on another dataset: neither the winning registration
	// nor the failed duplicates may invalidate it.
	if err := e.AddTuples("other", pts); err != nil {
		t.Fatal(err)
	}
	other := Request{Dataset: "other", Query: LinearQuery{Model: testLinearModel(t)}, K: 3}
	mustRun(t, e, other)
	const racers = 8
	var wg sync.WaitGroup
	errs := make([]error, racers)
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = e.AddTuples("dup", pts)
		}(g)
	}
	wg.Wait()
	wins := 0
	for g, err := range errs {
		switch {
		case err == nil:
			wins++
		case !errors.Is(err, ErrDuplicateDataset):
			t.Fatalf("racer %d: %v, want ErrDuplicateDataset", g, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d racers won, want exactly 1", wins)
	}
	if ds := e.Datasets(); len(ds) != 2 || ds[0].Name != "dup" || ds[0].Rows != len(pts) || ds[0].Gen != 1 {
		t.Fatalf("registered state torn: %+v", ds)
	}
	if !mustRun(t, e, other).Stats.Cache.Hit {
		t.Fatal("registering another dataset evicted a warm entry")
	}
}

// TestSnapshotDuringIngest pins snapshot consistency under traffic:
// snapshots racing a stream of appends each capture a consistent pre-
// or post-append world — the restored row count always lands on an
// append boundary, and the restored engine answers bit-identically to
// a fresh engine built from exactly that prefix.
func TestSnapshotDuringIngest(t *testing.T) {
	pts, err := synth.GaussianTuples(31, 3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	const base, chunk, chunks = 2000, 100, 10
	e := NewEngineWith(Options{Shards: 4})
	if err := e.AddTuples("gauss", pts[:base]); err != nil {
		t.Fatal(err)
	}
	lm := testLinearModel(t)
	ctx := context.Background()

	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for c := 0; c < chunks; c++ {
			lo := base + c*chunk
			if err := e.AppendTuples("gauss", pts[lo:lo+chunk]); err != nil {
				t.Errorf("append %d: %v", c, err)
				return
			}
		}
	}()

	snaps := 0
	for running := true; running; {
		select {
		case <-writerDone:
			running = false
		default:
		}
		dir, err := segment.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Snapshot(ctx, dir); err != nil {
			t.Fatal(err)
		}
		re, err := OpenSnapshot(dir, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rows := re.Datasets()[0].Rows
		if rows < base || rows > len(pts) || (rows-base)%chunk != 0 {
			t.Fatalf("snapshot %d captured a torn world: %d rows", snaps, rows)
		}
		ref := NewEngineWith(Options{Shards: 4})
		if err := ref.AddTuples("gauss", pts[:rows]); err != nil {
			t.Fatal(err)
		}
		req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}
		got, err := re.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		itemsEqual(t, fmt.Sprintf("snapshot %d (%d rows)", snaps, rows), got.Items, want.Items)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		snaps++
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPerDatasetInvalidationUnderTraffic is the -race soak for the
// cache-invalidation bug this PR fixes: a hammer of appends to one
// dataset must not evict another dataset's cache entries, and a query
// issued after an append returns must see the appended rows — never a
// stale cached answer.
func TestPerDatasetInvalidationUnderTraffic(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	defer e.Close()
	lm := testLinearModel(t)
	ctx := context.Background()
	weatherReq := Request{Dataset: "weather", Query: FSMDistanceQuery{Target: fsm.FireAnts(), Horizon: 6}, K: 5}

	// Warm weather's entry, then hammer gauss while weather keeps
	// serving hits.
	if _, err := e.Run(ctx, weatherReq); err != nil {
		t.Fatal(err)
	}
	const writers, iters = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				row := []float64{float64(w), float64(i), 1}
				if err := e.AppendTuples("gauss", [][]float64{row}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := e.Run(ctx, weatherReq)
			if err != nil {
				t.Errorf("weather reader: %v", err)
				return
			}
			if !res.Stats.Cache.Hit {
				t.Error("append traffic on gauss evicted weather's cache entry")
				return
			}
		}
	}()
	// Foreground reader: every gauss query must reflect at least the
	// appends that completed before it started (generations monotone).
	var lastGen uint64
	for i := 0; i < 50; i++ {
		gen := e.Datasets()[0].Gen // sorted by name: basin first — find gauss
		for _, ds := range e.Datasets() {
			if ds.Name == "gauss" {
				gen = ds.Gen
			}
		}
		if gen < lastGen {
			t.Fatalf("gauss generation went backwards: %d -> %d", lastGen, gen)
		}
		lastGen = gen
		if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Plant a row that dominates every score and require the very next
	// query to surface it: the freshness half of the invalidation
	// contract. testLinearModel's coefficients are {1, -0.5, 2}.
	if _, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 1}); err != nil {
		t.Fatal(err)
	}
	rows := 0
	for _, ds := range e.Datasets() {
		if ds.Name == "gauss" {
			rows = ds.Rows
		}
	}
	planted := []float64{1e9, 0, 1e9}
	if err := e.AppendTuples("gauss", [][]float64{planted}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(ctx, Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cache.Hit {
		t.Fatal("stale cached answer served after append returned")
	}
	if len(res.Items) != 1 || res.Items[0].ID != int64(rows) {
		t.Fatalf("planted max row (id %d) missing: got %+v", rows, res.Items)
	}
}

// TestCompactionPreservesCache pins that compaction is invisible to
// the cache: it changes layout, not content, so it leaves the
// generation alone and warm entries keep serving.
func TestCompactionPreservesCache(t *testing.T) {
	a := buildArchives(t)
	e := engineWithArchives(t, 4, a)
	defer e.Close()
	lm := testLinearModel(t)
	ctx := context.Background()
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: lm}, K: 10}

	if err := e.AppendTuples("gauss", a.pts[:3]); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	e.Compact()
	warm, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Cache.Hit {
		t.Fatal("compaction evicted a still-valid entry")
	}
	itemsEqual(t, "post-compaction hit", warm.Items, cold.Items)
	for _, ds := range e.Datasets() {
		if ds.Name == "gauss" && ds.Deltas != 0 {
			t.Fatalf("gauss still holds %d deltas after Compact", ds.Deltas)
		}
	}
}

// TestBackgroundCompaction pins the automatic trigger: four equal
// appends merge into one delta without any explicit Compact call, on
// a raw-row engine as on a restored one, and the base is left alone.
func TestBackgroundCompaction(t *testing.T) {
	pts, err := synth.GaussianTuples(17, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 4})
	if err := e.AddTuples("gauss", pts[:100]); err != nil {
		t.Fatal(err)
	}
	for lo := 100; lo < len(pts); lo += 50 {
		if err := e.AppendTuples("gauss", pts[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	// Close waits for in-flight compactions. Six 50-row appends are one
	// 200-row merge of the first four plus two live 50-row deltas.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ds := e.Datasets()[0]
	if ds.Rows != len(pts) {
		t.Fatalf("rows = %d, want %d", ds.Rows, len(pts))
	}
	if ds.Deltas != 3 || ds.Compactions != 1 || ds.MergedSegments != 4 || ds.ReindexedRows != 200 {
		t.Fatalf("after 6 appends: %+v, want 3 deltas from 1 compaction of 4 segments / 200 rows", ds)
	}
}

// indexState counts gauss's base shards and deltas that hold no
// columnar store. It runs no query, so it never builds one.
func indexState(e *Engine) (lazyBase, bases, lazyDeltas, deltas int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	ts := e.tuples["gauss"]
	for _, sh := range ts.shards {
		if sh.store == nil {
			lazyBase++
		}
	}
	for _, sh := range ts.deltas {
		if sh.store == nil {
			lazyDeltas++
		}
	}
	return lazyBase, len(ts.shards), lazyDeltas, len(ts.deltas)
}

// TestPublishedSegmentsAreIndexed pins the write-path invariant: every
// segment published by AddTuples, AppendTuples, AppendTuplesAt, an
// Appender flush, a background merge, Compact or a snapshot restore
// already holds its columnar store — checked before any query has run,
// so no read can be the one that builds it.
func TestPublishedSegmentsAreIndexed(t *testing.T) {
	pts, err := synth.GaussianTuples(23, 1200, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, restored := range []bool{false, true} {
		e := NewEngineWith(Options{Shards: 3})
		for _, name := range []string{"gauss", "pinned"} {
			if err := e.AddTuples(name, pts[:600]); err != nil {
				t.Fatal(err)
			}
		}
		if restored {
			dir, err := segment.NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Snapshot(ctx, dir); err != nil {
				t.Fatal(err)
			}
			e = openRestored(t, dir, segment.Copy)
		}
		check := func(step string, wantDeltas int) {
			t.Helper()
			lazyBase, bases, lazyDeltas, deltas := indexState(e)
			if lazyDeltas != 0 || deltas != wantDeltas {
				t.Fatalf("restored=%v %s: %d of %d deltas unindexed, want 0 of %d", restored, step, lazyDeltas, deltas, wantDeltas)
			}
			if lazyBase != 0 {
				t.Fatalf("restored=%v %s: %d of %d base shards unindexed, want 0", restored, step, lazyBase, bases)
			}
		}
		check("registration", 0)

		if err := e.AppendTuples("gauss", pts[600:700]); err != nil {
			t.Fatal(err)
		}
		check("AppendTuples", 1)

		ap := NewAppender(e, AppenderOptions{})
		if err := ap.AppendTuples(ctx, "gauss", pts[700:800]); err != nil {
			t.Fatal(err)
		}
		ap.Close()
		check("Appender flush", 2)

		for lo := 800; lo < 1000; lo += 100 {
			if err := e.AppendTuples("gauss", pts[lo:lo+100]); err != nil {
				t.Fatal(err)
			}
		}
		settle(e)
		check("background merge", 1)

		if err := e.AppendTuples("gauss", pts[1000:1100]); err != nil {
			t.Fatal(err)
		}
		e.Compact()
		if restored {
			check("Compact", 1) // no registration rows: one merged delta
		} else {
			check("Compact", 0) // rebuilt base shards
		}

		// The cluster landing path: an explicit base past the watermark.
		if err := e.AppendTuplesAt("pinned", 5000, pts[1100:]); err != nil {
			t.Fatal(err)
		}
		e.mu.RLock()
		d := e.tuples["pinned"].deltas[0]
		e.mu.RUnlock()
		if d.store == nil || d.offset != 5000 {
			t.Fatalf("restored=%v AppendTuplesAt: delta store %v at offset %d, want built at 5000", restored, d.store != nil, d.offset)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTieredCompactionBounds pins the cost of the tier rule on a
// restored engine: after 256 equal appends at most 4*ceil(log4 256)
// deltas are live, and the rows handed to the store build — counted by the
// engine's hook, once per append plus once per merge a row took part in
// — stay within rows*(1 + log4 256). The dataset's reindexed_rows
// counter is exactly the merge share of that count.
func TestTieredCompactionBounds(t *testing.T) {
	const appends, batch, levels = 256, 8, 4 // log4 256 = 4
	pts, err := synth.GaussianTuples(29, 64+appends*batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := NewEngineWith(Options{Shards: 2})
	if err := b.AddTuples("gauss", pts[:64]); err != nil {
		t.Fatal(err)
	}
	dir, err := segment.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Snapshot(ctx, dir); err != nil {
		t.Fatal(err)
	}
	e := openRestored(t, dir, segment.Copy)
	defer e.Close()
	var built atomic.Int64
	e.onIndex = func(rows int) { built.Add(int64(rows)) }

	for lo := 64; lo < len(pts); lo += batch {
		if err := e.AppendTuples("gauss", pts[lo:lo+batch]); err != nil {
			t.Fatal(err)
		}
	}
	settle(e)
	ds := e.Datasets()[0]
	rows := appends * batch
	if ds.Rows != 64+rows {
		t.Fatalf("rows = %d, want %d", ds.Rows, 64+rows)
	}
	if ds.Deltas < 1 || ds.Deltas > 4*levels {
		t.Fatalf("%d live deltas after %d appends, want 1..%d", ds.Deltas, appends, 4*levels)
	}
	if got := built.Load(); got > int64(rows*(1+levels)) {
		t.Fatalf("store builds saw %d rows for %d appended, want <= %d", got, rows, rows*(1+levels))
	}
	if got := built.Load() - int64(rows); got != int64(ds.ReindexedRows) || ds.Compactions == 0 {
		t.Fatalf("reindexed_rows = %d over %d compactions, hook counted %d merged rows", ds.ReindexedRows, ds.Compactions, got)
	}

	// The tiered layout answers like a from-scratch build.
	ref := NewEngineWith(Options{Shards: 2})
	if err := ref.AddTuples("gauss", pts); err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: testLinearModel(t)}, K: 25}
	got, err := e.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	itemsEqual(t, "tiered vs rebuilt", got.Items, want.Items)

	// Mixed append sizes: the live delta count stays within three per
	// size class plus the newest three, and a large delta that absorbs
	// smaller older ones is rebuilt in its own class ([1,300,300,300]
	// merges into one 901-row delta although only the 1 rises).
	t.Run("mixed sizes", func(t *testing.T) {
		m := NewEngineWith(Options{Shards: 2})
		defer m.Close()
		if err := m.AddTuples("gauss", pts[:64]); err != nil {
			t.Fatal(err)
		}
		lo := 64
		land := func(n int) {
			t.Helper()
			if err := m.AppendTuples("gauss", pts[lo:lo+n]); err != nil {
				t.Fatal(err)
			}
			lo += n
		}
		for _, n := range []int{1, 300, 300, 300} {
			land(n)
		}
		settle(m)
		if ds := m.Datasets()[0]; ds.Deltas != 1 || ds.ReindexedRows != 901 {
			t.Fatalf("[1,300,300,300]: %+v, want one 901-row delta", ds)
		}
		rng := rand.New(rand.NewSource(41))
		for lo+300 <= len(pts) {
			land(1 + rng.Intn(300)>>uint(rng.Intn(9)))
			settle(m)
			ds := m.Datasets()[0]
			if limit := 3*(sizeClass(ds.Rows)+1) + 3; ds.Deltas > limit {
				t.Fatalf("%d live deltas over %d rows, want <= %d", ds.Deltas, ds.Rows, limit)
			}
		}
		mixed, err := m.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		part := NewEngineWith(Options{Shards: 2})
		if err := part.AddTuples("gauss", pts[:lo]); err != nil {
			t.Fatal(err)
		}
		wantMixed, err := part.Run(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		itemsEqual(t, "mixed tiers vs rebuilt", mixed.Items, wantMixed.Items)
	})
}

// TestCompactionRetriesDroppedBuild pins what happens when a compaction
// finds, at its swap, that another one replaced the deltas it captured:
// it starts over from the current set instead of giving up. Neither a
// background merge racing Compact() nor the reverse loses its work.
func TestCompactionRetriesDroppedBuild(t *testing.T) {
	const batch = 8
	pts, err := synth.GaussianTuples(43, 64+8*batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	// stage returns an engine whose first index build over `rows` rows
	// signals building and then waits for release.
	stage := func(t *testing.T, rows int) (e *Engine, building, release chan struct{}, land func(from, to int)) {
		e = NewEngineWith(Options{Shards: 2})
		if err := e.AddTuples("gauss", pts[:64]); err != nil {
			t.Fatal(err)
		}
		building, release = make(chan struct{}), make(chan struct{})
		var once sync.Once
		e.onIndex = func(n int) {
			if n == rows {
				once.Do(func() {
					close(building)
					<-release
				})
			}
		}
		land = func(from, to int) {
			t.Helper()
			for i := from; i < to; i++ {
				lo := 64 + i*batch
				if err := e.AppendTuples("gauss", pts[lo:lo+batch]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return e, building, release, land
	}

	t.Run("background merge dropped by Compact", func(t *testing.T) {
		e, building, release, land := stage(t, 4*batch)
		land(0, 4)
		<-building  // the tier merge of deltas 0-3 is mid-build
		e.Compact() // folds them into the base under it
		land(4, 8)  // a new run, and no append after it
		close(release)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if ds := e.Datasets()[0]; ds.Deltas != 1 || ds.Compactions != 2 || ds.MergedSegments != 8 {
			t.Fatalf("after Close: %+v, want the second run merged by the retried compactor", ds)
		}
	})

	t.Run("Compact dropped by background merge", func(t *testing.T) {
		e, building, release, land := stage(t, (64+3*batch)/2)
		land(0, 3)
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.Compact()
		}()
		<-building // the fold of deltas 0-2 is mid-build
		land(3, 7) // delta 3 completes a run; the tier merge swaps first
		settle(e)
		close(release)
		<-done
		if ds := e.Datasets()[0]; ds.Deltas != 0 || ds.Compactions != 2 || ds.Rows != 64+7*batch {
			t.Fatalf("after Compact: %+v, want every delta folded", ds)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCompactionTriggerNotLost pins the re-check at the end of a
// compaction: four appends land while a merge is building and then the
// appends stop for good. The compactor must notice the new run itself
// — Close returns with both runs merged — instead of leaving it for a
// next append that never comes.
func TestCompactionTriggerNotLost(t *testing.T) {
	const batch = 8
	pts, err := synth.GaussianTuples(37, 64+8*batch, 3)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngineWith(Options{Shards: 2})
	if err := e.AddTuples("gauss", pts[:64]); err != nil {
		t.Fatal(err)
	}
	building, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	e.onIndex = func(rows int) {
		if rows > batch { // a merge, not an append
			once.Do(func() {
				close(building)
				<-release
			})
		}
	}
	appendBatches := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			lo := 64 + i*batch
			if err := e.AppendTuples("gauss", pts[lo:lo+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendBatches(0, 4)
	<-building // the first merge is mid-build
	appendBatches(4, 8)
	close(release)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	ds := e.Datasets()[0]
	if ds.Deltas != 2 || ds.Compactions != 2 || ds.ReindexedRows != 8*batch {
		t.Fatalf("after Close: %+v, want 2 merged deltas from 2 compactions", ds)
	}
}

// TestRunAllocsIndependentOfDeltas is the regression guard of the
// per-delta read cost (ROADMAP item 2a): a live delta adds a scan, not
// garbage. Segment runners append their unordered heap contents into
// pooled partial slots and only the merged heap is ordered, so a linear
// Run over six live deltas allocates what it does over none. The
// absolute bound pins the request path itself: a linear Run with no
// deltas makes at most 7 allocations.
func TestRunAllocsIndependentOfDeltas(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector; allocation counts are only meaningful without it")
	}
	pts, err := synth.GaussianTuples(23, 2000+1365, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := linear.New([]string{"a", "b", "c"}, []float64{0.5, -0.2, 0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Dataset: "gauss", Query: LinearQuery{Model: m}, K: 50, Workers: 1}
	allocs := func(appends ...int) float64 {
		// No cache: every Run must execute.
		e := NewEngineWith(Options{Shards: 2, CacheEntries: -1})
		defer e.Close()
		if err := e.AddTuples("gauss", pts[:2000]); err != nil {
			t.Fatal(err)
		}
		lo := 2000
		for _, n := range appends {
			if err := e.AppendTuples("gauss", pts[lo:lo+n]); err != nil {
				t.Fatal(err)
			}
			lo += n
		}
		if ds := e.Datasets()[0]; ds.Deltas != len(appends) {
			t.Fatalf("%d live deltas after %d appends", ds.Deltas, len(appends))
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := e.Run(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Appends shrinking by a size class each never form a run the tier
	// rule merges, so all six stay live.
	none, six := allocs(), allocs(1024, 256, 64, 16, 4, 1)
	if none > 7 {
		t.Fatalf("linear Run: %v allocs with no deltas, want <= 7", none)
	}
	if six > none {
		t.Fatalf("linear Run: %v allocs over 6 live deltas, %v over none", six, none)
	}
}
