// The scatter-gather hop alone: Router.Run against two in-process nodes
// at replication 2 with the node result cache off, so every iteration
// pays encode, one stream to the one node that covers the read (each
// node holds every partition), the node's scan, decode and merge — and
// nothing else. CI prints ns/op and allocs/op on every run (DESIGN.md §9
// records the figures).
//
// The spread case is the other cover shape: three nodes at replication
// 1, each holding one of a dataset's three partitions, so every read is
// one 'Q' per node, run in parallel. It reports rows examined per read (rows/op) beside ns/op,
// which is what a floor shared between the nodes would have to lower.

package cluster

import (
	"context"
	"math/rand"
	"net"
	"strconv"
	"testing"

	"modelir/internal/core"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

var benchSink core.Result

func BenchmarkRouterRun(b *testing.B) {
	f := buildFixtures(b)
	reqs := familyRequests(b, f)
	router, _ := startCluster(b, 2, 1, 2, f, NodeOptions{CacheEntries: -1})
	ctx := context.Background()
	for _, name := range []string{"linear", "scene", "knowledge"} {
		rq := reqs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := router.Run(ctx, rq)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
	b.Run("spread", benchSpread)
}

// benchSpread runs linear and geology reads over 60k 8-wide Gaussian
// tuples and 400 wells, spread over three one-shard nodes at
// replication 1 with the node cache off. The linear reads cycle through
// 64 seeded models, so no one coefficient vector sets the figure.
// Placement keys on the listeners' ports, so each dataset's name is the
// first of base, base-1, base-2, … whose partitions land on three
// distinct nodes: the cover is the same shape on every run.
func benchSpread(b *testing.B) {
	pts, err := synth.GaussianTuples(61, 60000, 8)
	if err != nil {
		b.Fatal(err)
	}
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 62, Wells: 400})
	if err != nil {
		b.Fatal(err)
	}
	lns := make([]net.Listener, 3)
	addrs := make([]string, len(lns))
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: 1}
	spread := func(base string, kind DataKind) string {
		for i := 0; ; i++ {
			name := base + "-" + strconv.Itoa(i)
			pl := topo.Layout(name, kind)
			if n0, n1, n2 := pl[0].Nodes[0], pl[1].Nodes[0], pl[2].Nodes[0]; n0 != n1 && n1 != n2 && n0 != n2 {
				return name
			}
		}
	}
	gauss, basin := spread("gauss", KindTuples), spread("basin", KindWells)
	for i, addr := range addrs {
		n := NewNode(addr, topo, NodeOptions{Shards: 1, CacheEntries: -1})
		if err := n.AddTuples(gauss, pts); err != nil {
			b.Fatal(err)
		}
		if err := n.AddWells(basin, wells); err != nil {
			b.Fatal(err)
		}
		n.ServeListener(lns[i])
		b.Cleanup(n.Close)
	}
	router := newTestRouter(b, topo, RouterOptions{})

	rng := rand.New(rand.NewSource(63))
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var linearReqs []core.Request
	for i := 0; i < 64; i++ {
		coeffs := make([]float64, len(names))
		for j := range coeffs {
			coeffs[j] = rng.NormFloat64()
		}
		lm, err := linear.New(names, coeffs, 0)
		if err != nil {
			b.Fatal(err)
		}
		linearReqs = append(linearReqs, core.Request{Dataset: gauss, Query: core.LinearQuery{Model: lm}, K: 10})
	}
	geology := []core.Request{{Dataset: basin, K: 12, Query: core.GeologyQuery{
		Sequence: []synth.Lithology{synth.Shale, synth.Sandstone, synth.Siltstone},
		MaxGapFt: 10, MinGamma: 45,
	}}}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		reqs []core.Request
	}{{"linear", linearReqs}, {"geology", geology}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			// rows/op counts whole passes over the requests only, so it
			// does not move with b.N.
			counted := b.N - b.N%len(c.reqs)
			if counted == 0 {
				counted = b.N
			}
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := router.Run(ctx, c.reqs[i%len(c.reqs)])
				if err != nil {
					b.Fatal(err)
				}
				if i < counted {
					rows += res.Stats.Examined
				}
				benchSink = res
			}
			b.ReportMetric(float64(rows)/float64(counted), "rows/op")
		})
	}
}
