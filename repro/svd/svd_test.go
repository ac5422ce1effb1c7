package svd

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"modelir/internal/synth"
	"modelir/internal/topk"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := Build([][]float64{{}}, Options{}); err == nil {
		t.Fatal("want zero-dim error")
	}
	if _, err := Build([][]float64{{1, 2}, {3}}, Options{}); err == nil {
		t.Fatal("want ragged error")
	}
	pts, _ := synth.GaussianTuples(1, 10, 2)
	if _, err := Build(pts, Options{Clusters: 99}); err == nil {
		t.Fatal("want cluster count error")
	}
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1 with eigenvectors
	// (1,1)/√2 and (1,-1)/√2.
	evals, evecs := jacobiEigen([][]float64{{2, 1}, {1, 2}})
	if math.Abs(evals[0]-3) > 1e-9 || math.Abs(evals[1]-1) > 1e-9 {
		t.Fatalf("eigenvalues %v", evals)
	}
	// First eigenvector parallel to (1,1).
	if math.Abs(math.Abs(evecs[0][0])-math.Abs(evecs[0][1])) > 1e-9 {
		t.Fatalf("first eigenvector %v", evecs[0])
	}
	// Orthonormality.
	dot := evecs[0][0]*evecs[1][0] + evecs[0][1]*evecs[1][1]
	if math.Abs(dot) > 1e-9 {
		t.Fatalf("eigenvectors not orthogonal: %v", dot)
	}
}

func TestJacobiEigenReconstruction(t *testing.T) {
	// For random symmetric A: A = V^T diag(evals) V must hold.
	rng := rand.New(rand.NewSource(3))
	const n = 5
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a[i][j] = v
			a[j][i] = v
		}
	}
	evals, evecs := jacobiEigen(a)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			recon := 0.0
			for r := 0; r < n; r++ {
				recon += evals[r] * evecs[r][i] * evecs[r][j]
			}
			if math.Abs(recon-a[i][j]) > 1e-8 {
				t.Fatalf("A[%d][%d]: recon %v want %v", i, j, recon, a[i][j])
			}
		}
	}
	// Sorted descending.
	for i := 1; i < n; i++ {
		if evals[i] > evals[i-1]+1e-12 {
			t.Fatal("eigenvalues not sorted")
		}
	}
}

// clusteredPoints plants c well-separated Gaussian blobs.
func clusteredPoints(seed int64, n, d, c int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, c)
	for i := range centers {
		centers[i] = make([]float64, d)
		for j := range centers[i] {
			centers[i][j] = rng.NormFloat64() * 20
		}
	}
	out := make([][]float64, n)
	for i := range out {
		ctr := centers[i%c]
		p := make([]float64, d)
		for j := range p {
			p[j] = ctr[j] + rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func TestNearestKHighRecallOnClusteredData(t *testing.T) {
	pts := clusteredPoints(5, 4000, 8, 6)
	ix, err := Build(pts, Options{Clusters: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	var recallSum float64
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		target := pts[rng.Intn(len(pts))]
		approx, st, err := ix.NearestK(target, 10)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := ExactNearestK(pts, target, 10)
		if err != nil {
			t.Fatal(err)
		}
		recallSum += Recall(approx, exact)
		if st.PointsCompared > len(pts) {
			t.Fatal("compared more points than exist")
		}
	}
	if avg := recallSum / trials; avg < 0.85 {
		t.Fatalf("average recall %v < 0.85 on well-clustered data", avg)
	}
}

func TestNearestKPrunesClusters(t *testing.T) {
	pts := clusteredPoints(7, 6000, 6, 12)
	ix, err := Build(pts, Options{Clusters: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := ix.NearestK(pts[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ClustersScanned >= len(ix.centroids) {
		t.Fatalf("no cluster pruning: scanned %d of %d", st.ClustersScanned, len(ix.centroids))
	}
	if st.PointsCompared*2 > len(pts) {
		t.Fatalf("compared %d of %d points", st.PointsCompared, len(pts))
	}
}

func TestDimensionReductionHappens(t *testing.T) {
	// Points on a 2-D plane embedded in 10-D: retained dims should be ~2.
	rng := rand.New(rand.NewSource(9))
	const n, d = 500, 10
	pts := make([][]float64, n)
	for i := range pts {
		a, b := rng.NormFloat64(), rng.NormFloat64()
		p := make([]float64, d)
		for j := 0; j < d; j++ {
			p[j] = a*float64(j%3) + b*float64((j+1)%2) + rng.NormFloat64()*0.001
		}
		pts[i] = p
	}
	ix, err := Build(pts, Options{Clusters: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.basis[0]) > 3 {
		t.Fatalf("retained %d dims for planar data", len(ix.basis[0]))
	}
}

func TestQueryValidation(t *testing.T) {
	pts, _ := synth.GaussianTuples(1, 100, 3)
	ix, err := Build(pts, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ix.NearestK([]float64{1}, 1); err == nil {
		t.Fatal("want dim error")
	}
	if _, _, err := ix.NearestK([]float64{1, 2, 3}, 0); err == nil {
		t.Fatal("want k error")
	}
	if _, err := ExactNearestK(nil, nil, 1); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := ExactNearestK(pts, []float64{1}, 1); err == nil {
		t.Fatal("want target dim error")
	}
}

func TestRecallMetric(t *testing.T) {
	itemsOf := func(ids ...int64) []topk.Item {
		out := make([]topk.Item, len(ids))
		for i, id := range ids {
			out[i] = topk.Item{ID: id}
		}
		return out
	}
	approx := itemsOf(1, 2, 3)
	exact := itemsOf(2, 3, 4)
	if r := Recall(approx, exact); math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall %v", r)
	}
	if r := Recall(nil, nil); r != 1 {
		t.Fatalf("empty recall %v", r)
	}
}

// Property: with full dimensionality retained and one cluster, the
// approximate index is exact.
func TestFullDimsExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		d := 2 + rng.Intn(4)
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, d)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			pts[i] = p
		}
		ix, err := Build(pts, Options{Clusters: 1, Dims: d, Seed: seed | 1})
		if err != nil {
			return false
		}
		target := make([]float64, d)
		for j := range target {
			target[j] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(8)
		approx, _, err := ix.NearestK(target, k)
		if err != nil {
			return false
		}
		exact, err := ExactNearestK(pts, target, k)
		if err != nil {
			return false
		}
		if len(approx) != len(exact) {
			return false
		}
		for i := range exact {
			if approx[i].ID != exact[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
