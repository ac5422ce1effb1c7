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
// The pair case is bench's cluster shape over the same data: two nodes
// at replication 2, two shards each, so every read is one 'Q' listing
// both partitions of a dataset, which the node drains as one read; its
// linear reads ask for K log-uniform over 10-200 as bench's do.

package cluster

import (
	"context"
	"math"
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
	b.Run("spread", func(b *testing.B) { benchCover(b, 3, 1, 1, false) })
	b.Run("pair", func(b *testing.B) { benchCover(b, 2, 2, 2, true) })
}

// benchCover runs linear and geology reads over 60k 8-wide Gaussian
// tuples and 400 wells on `count` nodes of `shards` shards at
// `replication`, with the node cache off. The linear reads cycle
// through 64 seeded models, so no one coefficient vector sets the
// figure, each with K 10 or, when logK is set, K log-uniform over
// 10-200. Placement keys on the listeners' ports, so each dataset's
// name is the first of base-0, base-1, … whose partitions land on
// distinct nodes (any name at full replication): the cover is the same
// shape on every run.
func benchCover(b *testing.B, count, replication, shards int, logK bool) {
	pts, err := synth.GaussianTuples(61, 60000, 8)
	if err != nil {
		b.Fatal(err)
	}
	wells, _, err := synth.WellArchive(synth.WellConfig{Seed: 62, Wells: 400})
	if err != nil {
		b.Fatal(err)
	}
	lns := make([]net.Listener, count)
	addrs := make([]string, len(lns))
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	topo := Topology{Nodes: addrs, Replication: replication}
	spread := func(base string, kind DataKind) string {
		for i := 0; ; i++ {
			name := base + "-" + strconv.Itoa(i)
			seen := make(map[string]bool)
			for _, pl := range topo.Layout(name, kind) {
				seen[pl.Nodes[0]] = true
			}
			if replication == count || len(seen) == count {
				return name
			}
		}
	}
	gauss, basin := spread("gauss", KindTuples), spread("basin", KindWells)
	for i, addr := range addrs {
		n := NewNode(addr, topo, NodeOptions{Shards: shards, CacheEntries: -1})
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
		k := 10
		if logK {
			k = int(math.Round(10 * math.Pow(20, rng.Float64())))
		}
		linearReqs = append(linearReqs, core.Request{Dataset: gauss, Query: core.LinearQuery{Model: lm}, K: k})
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
