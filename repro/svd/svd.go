// Package svd implements the clustering + singular value decomposition
// approximate high-dimensional index of reference [14] (Thomasian,
// Castelli & Li, "Clustering and Singular Value Decomposition for
// Approximate Indexing in High Dimensional Spaces", CIKM 1998) — the
// similarity-search incumbent the paper contrasts with model-specific
// indexing in Section 3.2.
//
// The construction: k-means-cluster the point set, compute each
// cluster's principal subspace from the covariance eigendecomposition
// (equivalently the SVD of the centered cluster matrix), and store
// points as low-dimensional projections. Nearest-neighbor queries scan
// clusters in order of centroid distance, compare in the reduced space,
// and terminate early; accuracy degrades gracefully with the retained
// dimension count — approximate by design, which is exactly why the
// paper argues such indexes are the wrong tool for *model* queries that
// need exact optima.
package svd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"modelir/internal/topk"
)

// Options tunes Build.
type Options struct {
	// Clusters is the k-means cluster count. Default max(1, n/256).
	Clusters int
	// Dims is the number of principal dimensions retained per cluster.
	// Default: enough to capture 90% of variance, at least 1.
	Dims int
	// Iterations bounds k-means rounds. Default 20.
	Iterations int
	// Seed fixes centroid initialization.
	Seed int64
}

// Index is an immutable clustered-SVD index.
type Index struct {
	dim    int
	points [][]float64
	// per cluster:
	centroids [][]float64
	basis     [][][]float64 // [cluster][retainedDim][dim]
	members   [][]int
	proj      [][][]float64 // [cluster][member][retainedDim]
	// radius[c] bounds the distance from centroid c to its farthest
	// member, for cluster pruning.
	radius []float64
}

// Build constructs the index. Points are not copied.
func Build(points [][]float64, opt Options) (*Index, error) {
	n := len(points)
	if n == 0 {
		return nil, errors.New("svd: empty point set")
	}
	d := len(points[0])
	if d == 0 {
		return nil, errors.New("svd: zero-dimensional points")
	}
	for i, p := range points {
		if len(p) != d {
			return nil, fmt.Errorf("svd: point %d has dim %d, want %d", i, len(p), d)
		}
	}
	k := opt.Clusters
	if k == 0 {
		k = n / 256
		if k < 1 {
			k = 1
		}
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("svd: cluster count %d out of [1,%d]", k, n)
	}
	iters := opt.Iterations
	if iters == 0 {
		iters = 20
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}

	centroids, members := kmeans(points, k, iters, seed)
	ix := &Index{
		dim:       d,
		points:    points,
		centroids: centroids,
		members:   members,
		basis:     make([][][]float64, len(members)),
		proj:      make([][][]float64, len(members)),
		radius:    make([]float64, len(members)),
	}
	for c, mem := range members {
		cov := covariance(points, mem, centroids[c])
		evals, evecs := jacobiEigen(cov)
		dims := opt.Dims
		if dims == 0 {
			dims = dimsFor90(evals)
		}
		if dims < 1 {
			dims = 1
		}
		if dims > d {
			dims = d
		}
		// Retain the top-dims eigenvectors (jacobiEigen returns them
		// sorted by descending eigenvalue).
		ix.basis[c] = evecs[:dims]
		ix.proj[c] = make([][]float64, len(mem))
		for mi, pi := range mem {
			ix.proj[c][mi] = project(points[pi], centroids[c], ix.basis[c])
			dist := math.Sqrt(dist2(points[pi], centroids[c]))
			if dist > ix.radius[c] {
				ix.radius[c] = dist
			}
		}
	}
	return ix, nil
}

// Stats counts query work.
type Stats struct {
	ClustersScanned int
	PointsCompared  int
}

// NearestK returns approximately the k nearest points to target.
// Clusters are visited in order of centroid distance and pruned when
// the centroid distance minus cluster radius already exceeds the
// current k-th best; comparisons inside a cluster use the reduced
// space, which is where the (bounded) approximation error comes from.
func (ix *Index) NearestK(target []float64, k int) ([]topk.Item, Stats, error) {
	var st Stats
	if len(target) != ix.dim {
		return nil, st, fmt.Errorf("svd: target dim %d, want %d", len(target), ix.dim)
	}
	if k < 1 {
		return nil, st, errors.New("svd: k must be >= 1")
	}
	type cd struct {
		c    int
		dist float64
	}
	order := make([]cd, len(ix.centroids))
	for c := range ix.centroids {
		order[c] = cd{c: c, dist: math.Sqrt(dist2(target, ix.centroids[c]))}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dist != order[j].dist {
			return order[i].dist < order[j].dist
		}
		return order[i].c < order[j].c
	})
	// Max-heap on negative distance via topk (which keeps largest):
	// score = -distance, so the retained k have the smallest distances.
	h := topk.MustHeap(k)
	for _, o := range order {
		if h.Full() {
			if floor, ok := h.Threshold(); ok {
				// floor = -(current k-th smallest distance). Prune when
				// even the closest possible member (centroid dist -
				// radius) is farther.
				if o.dist-ix.radius[o.c] > -floor {
					continue
				}
			}
		}
		st.ClustersScanned++
		tproj := project(target, ix.centroids[o.c], ix.basis[o.c])
		for mi, pi := range ix.members[o.c] {
			st.PointsCompared++
			dd := 0.0
			for j := range tproj {
				diff := tproj[j] - ix.proj[o.c][mi][j]
				dd += diff * diff
			}
			h.OfferScore(int64(pi), -math.Sqrt(dd))
		}
	}
	items := h.Results()
	// Replace reduced-space scores with true distances for the caller
	// (ranking stays as the index determined it — approximate).
	for i := range items {
		items[i].Score = math.Sqrt(dist2(target, ix.points[items[i].ID]))
	}
	return items, st, nil
}

// ExactNearestK is the exact full-dimensional baseline.
func ExactNearestK(points [][]float64, target []float64, k int) ([]topk.Item, error) {
	if len(points) == 0 {
		return nil, errors.New("svd: empty point set")
	}
	if len(target) != len(points[0]) {
		return nil, errors.New("svd: target dimension mismatch")
	}
	h, err := topk.NewHeap(k)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		h.OfferScore(int64(i), -math.Sqrt(dist2(target, p)))
	}
	items := h.Results()
	for i := range items {
		items[i].Score = -items[i].Score
	}
	return items, nil
}

// Recall measures the fraction of the exact k-NN set the approximate
// result recovered.
func Recall(approx, exact []topk.Item) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := make(map[int64]bool, len(exact))
	for _, it := range exact {
		in[it.ID] = true
	}
	hits := 0
	for _, it := range approx {
		if in[it.ID] {
			hits++
		}
	}
	return float64(hits) / float64(len(exact))
}

// ---- internals ----

func kmeans(points [][]float64, k, iters int, seed int64) ([][]float64, [][]int) {
	n, d := len(points), len(points[0])
	rng := rand.New(rand.NewSource(seed))
	// k-means++ style seeding: first uniform, rest distance-weighted.
	centroids := make([][]float64, 0, k)
	first := rng.Intn(n)
	centroids = append(centroids, append([]float64(nil), points[first]...))
	minD := make([]float64, n)
	for i := range minD {
		minD[i] = dist2(points[i], centroids[0])
	}
	for len(centroids) < k {
		total := 0.0
		for _, dd := range minD {
			total += dd
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			for i, dd := range minD {
				acc += dd
				if acc >= r {
					pick = i
					break
				}
			}
		}
		c := append([]float64(nil), points[pick]...)
		centroids = append(centroids, c)
		for i := range minD {
			if dd := dist2(points[i], c); dd < minD[i] {
				minD[i] = dd
			}
		}
	}

	assign := make([]int, n)
	for it := 0; it < iters; it++ {
		changed := false
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for c := range centroids {
				if dd := dist2(p, centroids[c]); dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		// Recompute centroids.
		count := make([]int, len(centroids))
		sums := make([][]float64, len(centroids))
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i, p := range points {
			c := assign[i]
			count[c]++
			for j, v := range p {
				sums[c][j] += v
			}
		}
		for c := range centroids {
			if count[c] == 0 {
				continue // keep old centroid for empty clusters
			}
			for j := range centroids[c] {
				centroids[c][j] = sums[c][j] / float64(count[c])
			}
		}
		if !changed {
			break
		}
	}
	members := make([][]int, len(centroids))
	for i := range points {
		members[assign[i]] = append(members[assign[i]], i)
	}
	// Drop empty clusters.
	var outC [][]float64
	var outM [][]int
	for c := range members {
		if len(members[c]) > 0 {
			outC = append(outC, centroids[c])
			outM = append(outM, members[c])
		}
	}
	return outC, outM
}

func covariance(points [][]float64, members []int, mean []float64) [][]float64 {
	d := len(mean)
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	if len(members) < 2 {
		for i := 0; i < d; i++ {
			cov[i][i] = 1e-9
		}
		return cov
	}
	for _, pi := range members {
		p := points[pi]
		for i := 0; i < d; i++ {
			di := p[i] - mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += di * (p[j] - mean[j])
			}
		}
	}
	norm := 1 / float64(len(members)-1)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= norm
			cov[j][i] = cov[i][j]
		}
	}
	return cov
}

// jacobiEigen computes eigenvalues and eigenvectors of a symmetric
// matrix via cyclic Jacobi rotations, returning them sorted by
// descending eigenvalue. Eigenvectors are returned as rows.
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	n := len(a)
	// Work on a copy.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	v := make([][]float64, n)
	for i := range v {
		v[i] = make([]float64, n)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 50; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m[i][j] * m[i][j]
			}
		}
		if off < 1e-18 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(m[p][q]) < 1e-15 {
					continue
				}
				theta := (m[q][q] - m[p][p]) / (2 * m[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < n; i++ {
					mip, miq := m[i][p], m[i][q]
					m[i][p] = c*mip - s*miq
					m[i][q] = s*mip + c*miq
				}
				for j := 0; j < n; j++ {
					mpj, mqj := m[p][j], m[q][j]
					m[p][j] = c*mpj - s*mqj
					m[q][j] = s*mpj + c*mqj
				}
				for i := 0; i < n; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	evals := make([]float64, n)
	for i := range evals {
		evals[i] = m[i][i]
	}
	// Sort descending, carrying eigenvectors (columns of v -> rows out).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return evals[idx[a]] > evals[idx[b]] })
	outVals := make([]float64, n)
	outVecs := make([][]float64, n)
	for r, id := range idx {
		outVals[r] = evals[id]
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			vec[i] = v[i][id]
		}
		outVecs[r] = vec
	}
	return outVals, outVecs
}

func dimsFor90(evals []float64) int {
	total := 0.0
	for _, e := range evals {
		if e > 0 {
			total += e
		}
	}
	if total == 0 {
		return 1
	}
	acc := 0.0
	for i, e := range evals {
		if e > 0 {
			acc += e
		}
		if acc/total >= 0.9 {
			return i + 1
		}
	}
	return len(evals)
}

func project(p, center []float64, basis [][]float64) []float64 {
	out := make([]float64, len(basis))
	for bi, b := range basis {
		s := 0.0
		for j := range p {
			s += (p[j] - center[j]) * b[j]
		}
		out[bi] = s
	}
	return out
}

func dist2(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
