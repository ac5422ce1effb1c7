// Cluster-serving baseline: the machine-readable artifact CI archives
// as BENCH_cluster.json, tracking scatter-gather overhead and pinning
// multi-node equivalence across commits. Each point boots a real
// in-process cluster (loopback TCP nodes plus a router) over the E9
// linear workload and compares its answers bit-for-bit against a
// single-node engine. On single-core CI hosts the ns_per_req numbers
// are informational (every node shares one CPU); the equivalence bits
// are the acceptance-pinned part.

package experiments

import (
	"context"
	"encoding/json"
	"net"
	"os"
	"runtime"
	"time"

	"modelir/internal/cluster"
	"modelir/internal/core"
)

// ClusterPoint is one node-count measurement.
type ClusterPoint struct {
	Nodes int `json:"nodes"`
	// NsPerReq / QPS time Router.Run end to end: encode, scatter over
	// TCP, remote scans, merge.
	NsPerReq float64 `json:"ns_per_req"`
	QPS      float64 `json:"qps"`
	// Equivalent records whether every run's items matched the
	// single-node reference exactly (IDs and scores).
	Equivalent bool `json:"equivalent"`
}

// ClusterBaseline is the BENCH_cluster.json artifact.
type ClusterBaseline struct {
	Tuples      int `json:"tuples"`
	Dims        int `json:"dims"`
	K           int `json:"k"`
	ShardsPer   int `json:"shards_per_node"`
	Replication int `json:"replication"`
	GOMAXPROCS  int `json:"gomaxprocs"`

	// SingleNsPerReq is the same request on an in-process engine — the
	// zero-network floor the scatter-gather overhead is measured from.
	SingleNsPerReq float64        `json:"single_ns_per_req"`
	Points         []ClusterPoint `json:"points"`
	// AllEquivalent is the CI gate: true iff every point stayed
	// bit-identical to the single-node reference.
	AllEquivalent bool `json:"all_equivalent"`
}

// clusterSweep measures the cluster baseline on the E9 linear workload
// (shrunk under Quick) at node counts 1, 2, 3.
func clusterSweep(cfg Config) (ClusterBaseline, error) {
	n, k, reps := ShardWorkloadSize, 10, 20
	if cfg.Quick {
		n, reps = 5_000, 5
	}
	base := ClusterBaseline{
		Tuples: n, K: k, ShardsPer: 2, Replication: 1,
		GOMAXPROCS: runtime.GOMAXPROCS(0), AllEquivalent: true,
	}
	pts, m, err := ShardWorkload(n)
	if err != nil {
		return base, err
	}
	base.Dims = len(pts[0])
	ctx := cfg.ctx()

	// Single-node reference: the exact answer and the timing floor.
	// Caching is disabled on both sides so every rep pays the scan.
	eng := core.NewEngineWith(core.Options{Shards: base.ShardsPer, CacheEntries: -1})
	if err := eng.AddTuples("t", pts); err != nil {
		return base, err
	}
	req := core.Request{Dataset: "t", Query: core.LinearQuery{Model: m}, K: k}
	want, err := eng.Run(ctx, req) // index build untimed
	if err != nil {
		return base, err
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		if _, err := eng.Run(ctx, req); err != nil {
			return base, err
		}
	}
	base.SingleNsPerReq = float64(time.Since(start).Nanoseconds()) / float64(reps)

	creq := cluster.Request{Dataset: "t", Query: req.Query, K: req.K}
	for _, count := range []int{1, 2, 3} {
		p, err := clusterPoint(ctx, count, base, reps, pts, creq, want)
		if err != nil {
			return base, err
		}
		base.Points = append(base.Points, p)
		base.AllEquivalent = base.AllEquivalent && p.Equivalent
	}
	return base, nil
}

// clusterPoint boots a cluster of count nodes over loopback, times the
// request through the router, and checks every run's equivalence
// against the single-node reference result.
func clusterPoint(ctx context.Context, count int, base ClusterBaseline, reps int, pts [][]float64, req cluster.Request, want core.Result) (point ClusterPoint, err error) {
	point = ClusterPoint{Nodes: count, Equivalent: true}
	lns := make([]net.Listener, count)
	addrs := make([]string, count)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return point, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	topo := cluster.Topology{Nodes: addrs, Replication: base.Replication}
	opt := cluster.NodeOptions{Shards: base.ShardsPer, CacheEntries: -1}
	nodes := make([]*cluster.Node, count)
	defer func() {
		for i, n := range nodes {
			if n != nil {
				n.Close() // also closes its listener
			} else {
				lns[i].Close()
			}
		}
	}()
	for i := range lns {
		node := cluster.NewNode(addrs[i], topo, opt)
		if err := node.AddTuples("t", pts); err != nil {
			return point, err
		}
		node.ServeListener(lns[i])
		nodes[i] = node
	}
	router := cluster.NewRouter(topo)
	defer router.Close()

	check := func() error {
		res, err := router.Run(ctx, req)
		if err != nil {
			return err
		}
		point.Equivalent = point.Equivalent && itemsMatch(res.Items, want.Items)
		return nil
	}
	if err := check(); err != nil { // per-node index builds untimed
		return point, err
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		if err := check(); err != nil {
			return point, err
		}
	}
	point.NsPerReq = float64(time.Since(start).Nanoseconds()) / float64(reps)
	if point.NsPerReq > 0 {
		point.QPS = 1e9 / point.NsPerReq
	}
	return point, nil
}

// WriteClusterBaseline runs the cluster sweep and writes the JSON
// baseline (the BENCH_cluster.json artifact produced by `benchtab
// -clusterjson`).
func WriteClusterBaseline(cfg Config, path string) error {
	base, err := clusterSweep(cfg)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
