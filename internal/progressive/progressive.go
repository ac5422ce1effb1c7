// Package progressive implements the paper's central mechanism
// (Section 3.1): progressive model execution over progressively
// represented data. It retrieves the exact top-K locations of a linear
// risk model over a multiband scene four ways —
//
//	Flat          — full model on every full-resolution pixel (the
//	                baseline whose cost is the paper's O(nN));
//	ProgModel     — progressive model only: a cheap sub-model screens
//	                every pixel, the full model runs on survivors
//	                (complexity reduction ratio pm);
//	ProgData      — progressive data only: branch-and-bound descent of
//	                the mean/min/max pyramid with full-model interval
//	                bounds (ratio pd);
//	Combined      — both: pyramid descent with sub-model bounds at
//	                coarse levels and progressive refinement at pixels,
//	                realizing the paper's O(nN/(pm·pd)).
//
// All four return identical result sets; they differ only in Work (the
// number of term evaluations, the paper's unit of model complexity n).
package progressive

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"modelir/internal/linear"
	"modelir/internal/pyramid"
	"modelir/internal/raster"
	"modelir/internal/topk"
)

// Binding maps a model's attributes onto scene bands by index: band[i]
// supplies the value of model attribute i.
type Binding struct {
	Bands []int
}

// Bind resolves a model's attribute names against a pyramid's band names.
func Bind(m *linear.Model, mp *pyramid.MultibandPyramid) (Binding, error) {
	out := Binding{Bands: make([]int, len(m.Attrs))}
	if err := bindAttrs(m.Attrs, mp, out.Bands); err != nil {
		return Binding{}, err
	}
	return out, nil
}

// bindAttrs resolves attribute names into dst without allocating
// (duplicate band names resolve to the last occurrence, matching the
// map-based resolution this replaced).
func bindAttrs(attrs []string, mp *pyramid.MultibandPyramid, dst []int) error {
	nb := mp.NumBands()
	for i, a := range attrs {
		found := -1
		for b := 0; b < nb; b++ {
			if mp.BandName(b) == a {
				found = b
			}
		}
		if found < 0 {
			return fmt.Errorf("progressive: no band %q for model attribute %d", a, i)
		}
		dst[i] = found
	}
	return nil
}

// Stats measures the work of one retrieval in term evaluations: each
// multiply-add against one attribute counts 1, whether it touched a pixel
// or a coarse cell envelope.
type Stats struct {
	// PixelTermEvals counts term evaluations on full-resolution pixels.
	PixelTermEvals int
	// CellTermEvals counts term evaluations on coarse pyramid cells
	// (interval bounds cost 2 evaluations per term: lo and hi).
	CellTermEvals int
	// PixelsVisited counts distinct full-resolution pixels examined.
	PixelsVisited int
	// CellsVisited counts coarse cells examined.
	CellsVisited int
}

// Work returns total term evaluations (the paper's n×N numerator).
func (s Stats) Work() int { return s.PixelTermEvals + s.CellTermEvals }

// Result is a retrieval outcome: items rank locations best-first with
// ID = y*W + x.
type Result struct {
	Items []topk.Item
	Stats Stats
}

// Flat evaluates the full model at every pixel.
func Flat(m *linear.Model, mp *pyramid.MultibandPyramid, k int) (Result, error) {
	var res Result
	bind, err := Bind(m, mp)
	if err != nil {
		return res, err
	}
	h, err := topk.NewHeap(k)
	if err != nil {
		return res, err
	}
	base := mp.Flat(0)
	w, hgt := base.W, base.H
	nTerms := m.NumTerms()
	x := make([]float64, nTerms)
	for y := 0; y < hgt; y++ {
		for xx := 0; xx < w; xx++ {
			base.Means(xx, y, bind.Bands, x)
			res.Stats.PixelTermEvals += nTerms
			res.Stats.PixelsVisited++
			h.OfferScore(int64(y*w+xx), m.EvalUnchecked(x))
		}
	}
	res.Items = h.Results()
	return res, nil
}

// ProgModel screens every pixel with the progressive model's coarsest
// level, then runs the remaining levels only on candidates whose
// optimistic bound can still reach the top K. Exact.
func ProgModel(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int) (Result, error) {
	var res Result
	m := pm.Full()
	bind, err := Bind(m, mp)
	if err != nil {
		return res, err
	}
	if k < 1 {
		return res, errors.New("progressive: k must be >= 1")
	}
	base := mp.Flat(0)
	w, hgt := base.W, base.H
	n := w * hgt

	// Pass 1: coarse sub-model everywhere.
	coarse := make([]float64, n)
	x := make([]float64, m.NumTerms())
	c0 := pm.CostAt(0)
	for y := 0; y < hgt; y++ {
		for xx := 0; xx < w; xx++ {
			base.Means(xx, y, bind.Bands, x)
			coarse[y*w+xx] = pm.EvalLevelUnchecked(0, x)
			res.Stats.PixelTermEvals += c0
			res.Stats.PixelsVisited++
		}
	}
	// The K-th largest pessimistic value (coarse − resid) is a sound
	// floor; only pixels whose optimistic value (coarse + resid) reaches
	// it need refinement.
	r0 := pm.Resid(0)
	floorHeap := topk.MustHeap(k)
	for id, c := range coarse {
		floorHeap.OfferScore(int64(id), c-r0)
	}
	floorItems := floorHeap.Results()
	floor := floorItems[len(floorItems)-1].Score

	h := topk.MustHeap(k)
	fullCost := m.NumTerms()
	for id, c := range coarse {
		if c+r0 < floor {
			continue
		}
		y, xx := id/w, id%w
		base.Means(xx, y, bind.Bands, x)
		// Charge only the terms the coarse level did not evaluate.
		res.Stats.PixelTermEvals += fullCost - c0
		h.OfferScore(int64(id), m.EvalUnchecked(x))
	}
	res.Items = h.Results()
	return res, nil
}

// cellEntry is a branch-and-bound frontier node.
type cellEntry struct {
	level, x, y int
	upper       float64
}

// ProgData runs best-first branch-and-bound on the pyramid: coarse cells
// are bounded with the full model's interval arithmetic over their
// min/max envelopes; cells that cannot reach the current K-th best are
// pruned without visiting their pixels. Exact.
func ProgData(m *linear.Model, mp *pyramid.MultibandPyramid, k int) (Result, error) {
	return descend(m, nil, mp, k)
}

// Combined is ProgData with a progressive model refinement at the pixel
// level: pixels are first scored by the coarse sub-model and only
// promising ones pay for the remaining terms. Exact.
func Combined(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int) (Result, error) {
	return descend(pm.Full(), pm, mp, k)
}

// DescendOpts tunes one branch-and-bound descent. The zero value
// reproduces Combined.
type DescendOpts struct {
	// Ctx cancels the descent cooperatively: it is checked once per
	// frontier pop, and a cancelled descent returns ctx.Err(). Nil
	// means no cancellation.
	Ctx context.Context
	// Bound is the request's shared screening floor: the descent reads
	// it to prune and raises it as its heap fills. Nil means unshared.
	Bound *topk.Bound
	// Meter is a shared work budget charged in term evaluations (the
	// same unit Stats counts). When it runs out the descent stops and
	// returns its partial (best-effort) result with no error; the
	// caller reads Meter.Exhausted to learn the result was truncated.
	Meter *topk.Meter
	// OnLevel, when non-nil, is invoked with the heap's current
	// best-first contents when the first result lands, when the top-K
	// first fills, and whenever a pyramid level drains from the
	// frontier (level = the coarsest level still outstanding): an
	// observation point at each level boundary, where a caller can
	// cancel the descent or read the budget spent so far. A non-nil
	// error aborts the descent.
	OnLevel func(level int, sofar []topk.Item) error
}

// CombinedInto runs Combined's descent over the whole scene, from one
// frontier holding every coarsest-level cell, into the caller's heap
// h: the engine's scene unit. Items land in h only; no result slice is
// built, and the descent's scratch comes from a pool, so a warmed-up
// call allocates nothing. Everything pruned is strictly below
// opt.Bound's floor, which never exceeds the global K-th best, so a
// caller merging h with other units' heaps still gets the exact top-K.
func CombinedInto(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, h *topk.Heap, opt DescendOpts) (Stats, error) {
	sc := descentScratchPool.Get().(*descentScratch)
	defer descentScratchPool.Put(sc)
	err := descendHeap(pm.Full(), pm, mp, h, opt, sc)
	return sc.st, err
}

// descend runs one unshared descent over the whole scene into a pooled
// heap.
func descend(m *linear.Model, pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int) (Result, error) {
	h, err := topk.GetHeap(k)
	if err != nil {
		return Result{}, err
	}
	defer topk.PutHeap(h)
	sc := descentScratchPool.Get().(*descentScratch)
	defer descentScratchPool.Put(sc)
	if err := descendHeap(m, pm, mp, h, DescendOpts{}, sc); err != nil {
		return Result{Stats: sc.st}, err
	}
	return Result{Items: h.Results(), Stats: sc.st}, nil
}

// descentScratch is the pooled per-descent working set: the frontier
// priority queue, the per-level outstanding counters, and the interval
// and pixel buffers sized to the model's term count.
type descentScratch struct {
	pq          []cellEntry
	outstanding []int
	bind        []int
	lo, hi, x   []float64
	// st is the descent's stats accumulator; it lives in the pooled
	// scratch so taking its address does not force a heap allocation
	// per descent.
	st Stats
}

var descentScratchPool = sync.Pool{New: func() any { return new(descentScratch) }}

func (sc *descentScratch) reset(nTerms, nLevels int) {
	if cap(sc.pq) == 0 {
		sc.pq = make([]cellEntry, 0, 64)
	}
	sc.pq = sc.pq[:0]
	if cap(sc.outstanding) < nLevels {
		sc.outstanding = make([]int, nLevels)
	}
	sc.outstanding = sc.outstanding[:nLevels]
	for i := range sc.outstanding {
		sc.outstanding[i] = 0
	}
	if cap(sc.bind) < nTerms {
		sc.bind = make([]int, nTerms)
		sc.lo = make([]float64, nTerms)
		sc.hi = make([]float64, nTerms)
		sc.x = make([]float64, nTerms)
	}
	sc.bind = sc.bind[:nTerms]
	sc.lo, sc.hi, sc.x = sc.lo[:nTerms], sc.hi[:nTerms], sc.x[:nTerms]
}

// descender carries one branch-and-bound descent. It replaces the
// closure-per-call structure this file used before the columnar
// rewrite: methods on one stack value allocate nothing, the frontier
// is a concrete max-heap (no container/heap interface boxing), and
// every envelope read goes through the pyramid's flat cell-major
// planes instead of chasing one Grid pointer per band per plane.
type descender struct {
	m      *linear.Model
	pm     *linear.ProgressiveModel
	mp     *pyramid.MultibandPyramid
	h      *topk.Heap
	sb     *topk.Bound
	meter  *topk.Meter
	ctx    context.Context
	done   <-chan struct{}
	onLvl  func(level int, sofar []topk.Item) error
	st     *Stats
	sc     *descentScratch
	base   *pyramid.FlatLevel
	nTerms int
	w      int

	coarsest        int
	started, filled bool
}

// pqPush inserts a frontier entry (max-heap on upper bound): parents
// whose bound is strictly below the entry's move down into the hole,
// and the entry is written once, where the hole stops.
func (d *descender) pqPush(e cellEntry) {
	pq := append(d.sc.pq, e)
	i := len(pq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if pq[parent].upper >= e.upper {
			break
		}
		pq[i] = pq[parent]
		i = parent
	}
	pq[i] = e
	d.sc.pq = pq
}

// pqPop removes and returns the highest-bound entry. The last entry
// fills the root's hole: the higher child moves up while its bound is
// strictly above the entry's, and the entry is written once, where the
// hole stops. The child is chosen without a branch — the right one only
// when its bound is strictly higher, so ties go left as they did when
// the sift swapped — and the pop order is unchanged.
func (d *descender) pqPop() cellEntry {
	pq := d.sc.pq
	top := pq[0]
	n := len(pq) - 1
	e := pq[n]
	pq = pq[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n {
			c += b2i(pq[c+1].upper > pq[c].upper)
		}
		if !(pq[c].upper > e.upper) {
			break
		}
		pq[i] = pq[c]
		i = c
	}
	if n > 0 {
		pq[i] = e
	}
	d.sc.pq = pq
	return top
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bound upper-bounds the model over cell (cx, cy) of `level` from the
// flat min/max envelope, charging the meter in term evaluations.
func (d *descender) bound(level, cx, cy int) (float64, error) {
	d.mp.Flat(level).Envelope(cx, cy, d.sc.bind, d.sc.lo, d.sc.hi)
	d.st.CellTermEvals += 2 * d.nTerms
	d.st.CellsVisited++
	d.meter.Charge(2 * d.nTerms)
	_, ub, err := d.m.Interval(d.sc.lo, d.sc.hi)
	return ub, err
}

// emit fires the OnLevel hook when the first result lands, when the
// top-K first fills, and whenever the coarsest still-outstanding level
// drains from the frontier.
func (d *descender) emit() error {
	if d.onLvl == nil {
		return nil
	}
	if !d.started && d.h.Len() > 0 {
		d.started = true
		if err := d.onLvl(d.coarsest, d.h.Results()); err != nil {
			return err
		}
	}
	if !d.filled && d.h.Full() {
		d.filled = true
		if err := d.onLvl(d.coarsest, d.h.Results()); err != nil {
			return err
		}
	}
	for d.coarsest > 0 && d.sc.outstanding[d.coarsest] == 0 {
		d.coarsest--
		if err := d.onLvl(d.coarsest, d.h.Results()); err != nil {
			return err
		}
	}
	return nil
}

// evalPixel scores the base-level cell (px, py), with progressive
// sub-model screening when a progressive model is present. Both the
// optimistic completion and the final score are screened by the scan's
// floor (topk.Floor): strictly below it, the pixel cannot enter the
// merged top-K and never reaches the heap.
func (d *descender) evalPixel(px, py int) {
	id := int64(py*d.w + px)
	d.st.PixelsVisited++
	d.base.Means(px, py, d.sc.bind, d.sc.x)
	floor := topk.Floor(d.h, d.sb.Get())
	if d.pm == nil {
		d.st.PixelTermEvals += d.nTerms
		d.meter.Charge(d.nTerms)
	} else {
		// Progressive pixel refinement: coarse sub-model first.
		c := d.pm.EvalLevelUnchecked(0, d.sc.x)
		d.st.PixelTermEvals += d.pm.CostAt(0)
		d.meter.Charge(d.pm.CostAt(0))
		if c+d.pm.Resid(0) < floor {
			return // even the optimistic completion cannot enter
		}
		d.st.PixelTermEvals += d.nTerms - d.pm.CostAt(0)
		d.meter.Charge(d.nTerms - d.pm.CostAt(0))
	}
	if v := d.m.EvalUnchecked(d.sc.x); !(v < floor) {
		d.h.OfferScore(id, v)
	}
}

// descendHeap runs the branch-and-bound descent from every
// coarsest-level cell into h, accumulating its stats in sc.st.
func descendHeap(m *linear.Model, pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, h *topk.Heap, opt DescendOpts, sc *descentScratch) error {
	nTerms := m.NumTerms()
	sc.reset(nTerms, mp.NumLevels())
	st := &sc.st
	*st = Stats{}
	if err := bindAttrs(m.Attrs, mp, sc.bind); err != nil {
		return err
	}

	d := descender{
		m: m, pm: pm, mp: mp, h: h, sb: opt.Bound, meter: opt.Meter,
		ctx: opt.Ctx, onLvl: opt.OnLevel, st: st, sc: sc,
		base: mp.Flat(0), nTerms: nTerms,
	}
	d.w = d.base.W
	if opt.Ctx != nil {
		d.done = opt.Ctx.Done()
	}

	// The frontier starts with every coarsest-level cell, row-major.
	top := mp.NumLevels() - 1
	coarse := mp.Flat(top)
	for cy := 0; cy < coarse.H; cy++ {
		for cx := 0; cx < coarse.W; cx++ {
			ub, err := d.bound(top, cx, cy)
			if err != nil {
				return err
			}
			d.pqPush(cellEntry{level: top, x: cx, y: cy, upper: ub})
			sc.outstanding[top]++
		}
	}
	d.coarsest = top

	for len(sc.pq) > 0 {
		if d.done != nil {
			select {
			case <-d.done:
				return d.ctx.Err()
			default:
			}
		}
		if d.meter.Exhausted() {
			break // budget exhausted: return the best-effort partial heap
		}
		e := d.pqPop()
		sc.outstanding[e.level]--
		// Strict comparison: a cell whose bound equals the floor may
		// still hold an equal-scoring pixel with a smaller ID, which
		// wins the deterministic tie-break.
		if e.upper < topk.Floor(h, d.sb.Get()) {
			break // best-first: nothing left can improve the result
		}
		if e.level == 0 {
			d.evalPixel(e.x, e.y)
			if t, ok := h.Threshold(); ok {
				d.sb.Raise(t) // publish the local floor to sibling shards
			}
			if err := d.emit(); err != nil {
				return err
			}
			continue
		}
		fine := mp.Flat(e.level - 1)
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				nx, ny := 2*e.x+dx, 2*e.y+dy
				if nx >= fine.W || ny >= fine.H {
					continue
				}
				ub, err := d.bound(e.level-1, nx, ny)
				if err != nil {
					return err
				}
				d.pqPush(cellEntry{level: e.level - 1, x: nx, y: ny, upper: ub})
				sc.outstanding[e.level-1]++
			}
		}
		if err := d.emit(); err != nil {
			return err
		}
	}
	return nil
}

// Speedups summarizes an E5-style four-cell comparison.
type Speedups struct {
	FlatWork     int
	ModelWork    int
	DataWork     int
	CombinedWork int
}

// Pm returns the progressive-model complexity reduction ratio.
func (s Speedups) Pm() float64 { return float64(s.FlatWork) / float64(s.ModelWork) }

// Pd returns the progressive-data complexity reduction ratio.
func (s Speedups) Pd() float64 { return float64(s.FlatWork) / float64(s.DataWork) }

// PmPd returns the combined speedup (the paper's nN/(pm·pd) denominator).
func (s Speedups) PmPd() float64 { return float64(s.FlatWork) / float64(s.CombinedWork) }

// Compare runs all four strategies, checks that the result sets agree
// exactly, and returns the speedup table.
func Compare(pm *linear.ProgressiveModel, mp *pyramid.MultibandPyramid, k int) (Speedups, []topk.Item, error) {
	var sp Speedups
	flat, err := Flat(pm.Full(), mp, k)
	if err != nil {
		return sp, nil, err
	}
	mres, err := ProgModel(pm, mp, k)
	if err != nil {
		return sp, nil, err
	}
	dres, err := ProgData(pm.Full(), mp, k)
	if err != nil {
		return sp, nil, err
	}
	cres, err := Combined(pm, mp, k)
	if err != nil {
		return sp, nil, err
	}
	for name, other := range map[string][]topk.Item{
		"prog-model": mres.Items, "prog-data": dres.Items, "combined": cres.Items,
	} {
		if err := sameItems(flat.Items, other); err != nil {
			return sp, nil, fmt.Errorf("progressive: %s diverged from flat: %w", name, err)
		}
	}
	sp = Speedups{
		FlatWork:     flat.Stats.Work(),
		ModelWork:    mres.Stats.Work(),
		DataWork:     dres.Stats.Work(),
		CombinedWork: cres.Stats.Work(),
	}
	return sp, flat.Items, nil
}

func sameItems(a, b []topk.Item) error {
	if len(a) != len(b) {
		return fmt.Errorf("result sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return fmt.Errorf("position %d: id %d vs %d", i, a[i].ID, b[i].ID)
		}
	}
	return nil
}

// RiskSurface materializes the model over the whole scene as a grid —
// used by accuracy experiments (E6) and examples that want to visualize
// or threshold the full surface rather than retrieve top-K.
func RiskSurface(m *linear.Model, mp *pyramid.MultibandPyramid) (*raster.Grid, error) {
	bind, err := Bind(m, mp)
	if err != nil {
		return nil, err
	}
	base := mp.Flat(0)
	out := raster.MustGrid(base.W, base.H)
	x := make([]float64, m.NumTerms())
	for y := 0; y < base.H; y++ {
		for xx := 0; xx < base.W; xx++ {
			base.Means(xx, y, bind.Bands, x)
			out.Set(xx, y, m.EvalUnchecked(x))
		}
	}
	return out, nil
}
