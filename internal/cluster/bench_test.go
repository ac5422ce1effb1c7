// The scatter-gather hop alone: Router.Run against two in-process nodes
// at replication 2 with the node result cache off, so every iteration
// pays encode, one stream to the one node that covers the read (each
// node holds every partition), the node's scan, decode and merge — and
// nothing else. CI prints ns/op and allocs/op on every run (DESIGN.md §9
// records the figures).

package cluster

import (
	"context"
	"testing"

	"modelir/internal/core"
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
}
