// modelird is the model-retrieval serving daemon: an HTTP front end
// over the sharded, cached, admission-controlled engine, loaded at
// startup with deterministic synthetic demo archives (one per model
// family).
//
// Usage:
//
//	modelird [-role single] [-addr :8077] [-shards 0] [-cache 0]
//	         [-maxworkers 0] [-tuples 20000] [-scene 128]
//	         [-regions 300] [-wells 200] [-data-dir /var/lib/modelird]
//	         [-debug-addr 127.0.0.1:6060]
//
// -debug-addr mounts net/http/pprof (profiles, goroutine dumps,
// /debug/pprof/…) on a SEPARATE listener so the profiling surface is
// opt-in and never shares a port with serving traffic; it is bound
// before any role starts, so every role — a node included — can be
// profiled. Empty (the default) disables it entirely.
//
// -data-dir enables durable snapshots (DESIGN.md §10): at boot the
// daemon restores the engine from a snapshot in that directory if one
// is present (mmap'd in place when the host supports it, so cold start
// skips every index build), or builds the demo archives and writes an
// initial snapshot when it is empty. POST /admin/snapshot persists the
// current state on demand. A corrupt snapshot fails boot with a typed
// error — it is never silently rebuilt over. The HTTP listener comes
// up before restore/build finishes; poll GET /healthz (503 → 200) to
// wait for serving readiness.
//
// Roles (DESIGN.md §9): the default "single" serves everything from an
// in-process engine. A cluster splits the same daemon into shard
// servers and a front end:
//
//	modelird -role=node -addr 127.0.0.1:9001 \
//	         -peers 127.0.0.1:9001,127.0.0.1:9002 [-self 127.0.0.1:9001]
//	modelird -role=router -addr :8077 \
//	         -peers 127.0.0.1:9001,127.0.0.1:9002 [-replication 1] \
//	         [-log-cap-bytes 0]
//
// Every node and the router must be given the same -peers list and
// -replication: placement is consistent-hashed from them, so they ARE
// the cluster configuration. Nodes generate the same demo archives and
// keep only their assigned partitions; the router serves the usual
// HTTP endpoints and scatter-gathers each query, returning answers
// bit-identical to -role=single over the same archives.
//
// Endpoints (JSON):
//
//	POST /run    one request:   {"dataset":"tuples","k":5,
//	             "query":{"kind":"linear","coeffs":[0.4,0.3,0.3]}}
//	POST /batch  many requests: {"requests":[...]} — deduped, cached,
//	             and executed per family on one shared worker pool
//	POST /append grow a dataset under traffic:
//	             {"dataset":"tuples","tuples":[[1,2,3]]} — rows land in
//	             a delta segment, queryable on return. The single role
//	             coalesces concurrent calls by group commit;
//	             the router role sequences the batch and replicates it
//	             to every replica of the owning partition (optional
//	             "token" makes client retries idempotent)
//	GET  /stats  cache counters, uptime, registered datasets
//	             (per-dataset cache generation and live delta count)
//	GET  /healthz          readiness: 503 while restoring/building, 200 serving
//	POST /admin/snapshot   persist current state to -data-dir on demand
//
// Query kinds: linear, scene, fsm, fsm-distance, geology, knowledge
// (see the wire shapes in server.go). Requests are cancelled when the
// client disconnects.
//
// Demo datasets: "tuples" (Gaussian rows, linear), "scene" (Landsat-
// like raster, scene + knowledge), "weather" (regional daily series,
// fsm + fsm-distance), "basin" (well logs, geology).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"modelir"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "modelird:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("modelird", flag.ContinueOnError)
	role := fs.String("role", "single", "serving role: single, router, or node")
	addr := fs.String("addr", ":8077", "listen address")
	peers := fs.String("peers", "", "comma-separated node addresses, identical on every router and node (cluster roles)")
	self := fs.String("self", "", "this node's address in -peers (node role; defaults to -addr)")
	replication := fs.Int("replication", 1, "replicas per partition, identical on every router and node (cluster roles)")
	shards := fs.Int("shards", 0, "shards per dataset (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 0, "result cache entries (0 = default, <0 = disabled)")
	maxWorkers := fs.Int("maxworkers", 0, "admission budget: requests and batch workers in flight (0 = default, <0 = unbounded)")
	tuples := fs.Int("tuples", 20000, "demo tuple archive rows")
	scene := fs.Int("scene", 128, "demo scene width and height")
	regions := fs.Int("regions", 300, "demo weather archive regions")
	wells := fs.Int("wells", 200, "demo well archive size")
	seed := fs.Int64("seed", 7, "demo data generator seed")
	logCap := fs.Int64("log-cap-bytes", 0, "router role: per-partition append-log cap in bytes; exceeding it while a replica is quarantined forces snapshot resync instead of unbounded log growth (0 = 64 MiB default, <0 = unlimited)")
	dataDir := fs.String("data-dir", "", "snapshot directory: restore at boot when a snapshot is present, write one after a fresh build, serve POST /admin/snapshot; empty disables persistence")
	debugAddr := fs.String("debug-addr", "", "opt-in pprof listener (e.g. 127.0.0.1:6060); empty disables the debug surface")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := demoConfig{
		Shards: *shards, Cache: *cache, MaxWorkers: *maxWorkers,
		Tuples: *tuples, Scene: *scene, Regions: *regions, Wells: *wells, Seed: *seed,
	}

	// The debug listener comes up before any role starts, so every role
	// — the node included — can be profiled.
	if *debugAddr != "" {
		// Bind synchronously: the debug surface is an explicit opt-in,
		// so a taken port or a typo'd address must fail startup, not
		// degrade into a daemon that silently cannot be profiled.
		ln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fmt.Errorf("debug listener %s: %w", *debugAddr, err)
		}
		dbg := &http.Server{
			Handler:           newDebugMux(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		defer dbg.Close() // a role that fails to start takes it down
		log.Printf("modelird debug (pprof) listening on %s", ln.Addr())
		go func() {
			if err := dbg.Serve(ln); err != nil && err != http.ErrServerClosed {
				log.Printf("modelird debug listener: %v", err)
			}
		}()
	}

	var s *server
	var buildErr chan error // nil (never fires) except in the single role
	switch *role {
	case "single":
		// Bring the listener up unready and restore/build in the
		// background: /healthz flips 503 → 200 when the engine is
		// serving, so routers and smoke tests wait deterministically.
		s = newServer(nil)
		buildErr = make(chan error, 1)
		go func(s *server, dir string) {
			engine, snapFn, err := openOrBuildEngine(cfg, dir)
			if err != nil {
				buildErr <- err
				return
			}
			s.setBackend(newEngineBackend(engine), snapFn)
			log.Printf("modelird single ready (%d datasets)", len(engine.Datasets()))
		}(s, *dataDir)
	case "router":
		topo, err := topologyOf(*peers, *replication)
		if err != nil {
			return err
		}
		r := modelir.NewClusterRouterWith(topo, modelir.ClusterRouterOptions{MaxLogBytes: *logCap})
		// Crash recovery (DESIGN.md §12): re-learn per-partition append
		// cursors and the global row watermark from the replicas before
		// serving, so a router restarted mid-ingest never reuses a
		// global ID range. Best-effort — the append path re-learns
		// lazily if every node is still booting.
		if err := r.SyncIngest(context.Background()); err != nil {
			log.Printf("modelird router: ingest recovery sync: %v (append paths re-learn lazily)", err)
		}
		// Background health passes probe every peer and walk reachable
		// stale replicas through catch-up, so a recovered node re-admits
		// itself without operator action.
		r.StartHealthLoop(2 * time.Second)
		s = newServer(routerBackend{router: r, peers: len(topo.Nodes)})
	case "node":
		topo, err := topologyOf(*peers, *replication)
		if err != nil {
			return err
		}
		return runNode(topo, *addr, *self, cfg, *dataDir)
	default:
		return fmt.Errorf("unknown -role %q (want single, router, or node)", *role)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	log.Printf("modelird %s listening on %s (tuples=%d scene=%dx%d regions=%d wells=%d)",
		*role, *addr, *tuples, *scene, *scene, *regions, *wells)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	select {
	case err := <-buildErr:
		return err
	case err := <-serveErr:
		return err
	}
}

// openOrBuildEngine is the single role's boot path: restore from
// -data-dir when a snapshot is there, otherwise build the demo
// archives (and, with persistence enabled, write the initial snapshot
// so the next boot restores). The returned function persists the
// engine on demand; it is nil when persistence is disabled.
func openOrBuildEngine(cfg demoConfig, dataDir string) (*modelir.Engine, func(context.Context) error, error) {
	if dataDir == "" {
		e, err := buildEngine(cfg)
		return e, nil, err
	}
	dir, err := modelir.NewSnapshotDir(dataDir)
	if err != nil {
		return nil, nil, err
	}
	opts := modelir.EngineOptions{CacheEntries: cfg.Cache, MaxWorkers: cfg.MaxWorkers}
	e, mode, err := restoreEngine(dir, opts)
	switch {
	case err == nil:
		log.Printf("modelird restored engine from %s (%s mode)", dataDir, mode)
	case errors.Is(err, modelir.ErrNoSnapshot):
		if e, err = buildEngine(cfg); err != nil {
			return nil, nil, err
		}
		if err := e.Snapshot(context.Background(), dir); err != nil {
			return nil, nil, fmt.Errorf("write initial snapshot to %s: %w", dataDir, err)
		}
		log.Printf("modelird built demo archives and wrote snapshot to %s", dataDir)
	default:
		// Corruption is refused, never rebuilt over: the operator
		// decides whether the snapshot is evidence or garbage.
		return nil, nil, fmt.Errorf("restore from %s: %w (move the directory aside to rebuild)", dataDir, err)
	}
	return e, func(ctx context.Context) error { return e.Snapshot(ctx, dir) }, nil
}

// restoreEngine opens a snapshot mmap'd when the host supports it,
// falling back to a copying restore.
func restoreEngine(dir *modelir.SnapshotDir, opts modelir.EngineOptions) (*modelir.Engine, modelir.RestoreMode, error) {
	e, err := modelir.OpenSnapshot(dir, modelir.RestoreOptions{Mode: modelir.RestoreMap, Options: opts})
	if err == nil {
		return e, modelir.RestoreMap, nil
	}
	if errors.Is(err, modelir.ErrMapUnsupported) {
		e, err = modelir.OpenSnapshot(dir, modelir.RestoreOptions{Mode: modelir.RestoreCopy, Options: opts})
		return e, modelir.RestoreCopy, err
	}
	return nil, modelir.RestoreCopy, err
}

// topologyOf parses the shared cluster configuration flags.
func topologyOf(peers string, replication int) (modelir.ClusterTopology, error) {
	var nodes []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			nodes = append(nodes, p)
		}
	}
	if len(nodes) == 0 {
		return modelir.ClusterTopology{}, errors.New("cluster roles need -peers (comma-separated node addresses)")
	}
	return modelir.ClusterTopology{Nodes: nodes, Replication: replication}, nil
}

// runNode serves this node's partitions of the demo archives until the
// process is killed, restoring them from -data-dir when a snapshot is
// present (placement metadata validated against the boot topology) and
// building + snapshotting otherwise.
func runNode(topo modelir.ClusterTopology, addr, self string, cfg demoConfig, dataDir string) error {
	if self == "" {
		self = addr
	}
	found := false
	for _, p := range topo.Nodes {
		if p == self {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("node address %q is not in -peers %v (set -self if -addr differs)", self, topo.Nodes)
	}
	opt := modelir.ClusterNodeOptions{Shards: cfg.Shards, CacheEntries: cfg.Cache}
	var n *modelir.ClusterNode
	if dataDir != "" {
		dir, err := modelir.NewSnapshotDir(dataDir)
		if err != nil {
			return err
		}
		n, err = restoreNode(self, topo, opt, dir)
		switch {
		case err == nil:
			log.Printf("modelird node %s restored partitions from %s", self, dataDir)
		case errors.Is(err, modelir.ErrNoSnapshot):
			if n, err = buildNode(self, topo, opt, cfg); err != nil {
				return err
			}
			if err := n.Snapshot(context.Background(), dir); err != nil {
				return fmt.Errorf("write initial node snapshot to %s: %w", dataDir, err)
			}
			log.Printf("modelird node %s built partitions and wrote snapshot to %s", self, dataDir)
		default:
			return fmt.Errorf("restore node from %s: %w (move the directory aside to rebuild)", dataDir, err)
		}
	} else {
		var err error
		if n, err = buildNode(self, topo, opt, cfg); err != nil {
			return err
		}
	}
	if err := n.Serve(addr); err != nil {
		return err
	}
	log.Printf("modelird node %s serving on %s (%d peers, replication %d)",
		self, n.Addr(), len(topo.Nodes), topo.Replication)
	select {} // serve until killed
}

// buildNode generates the demo archives and ingests this node's
// assigned partitions.
func buildNode(self string, topo modelir.ClusterTopology, opt modelir.ClusterNodeOptions, cfg demoConfig) (*modelir.ClusterNode, error) {
	n := modelir.NewClusterNode(self, topo, opt)
	data, err := buildDemoData(cfg)
	if err != nil {
		return nil, err
	}
	if err := n.AddTuples("tuples", data.pts); err != nil {
		return nil, err
	}
	if err := n.AddScene("scene", data.scene); err != nil {
		return nil, err
	}
	if err := n.AddSeries("weather", data.weather); err != nil {
		return nil, err
	}
	if err := n.AddWells("basin", data.wells); err != nil {
		return nil, err
	}
	return n, nil
}

// restoreNode restores a shard server mmap'd when the host supports
// it, falling back to a copying restore.
func restoreNode(self string, topo modelir.ClusterTopology, opt modelir.ClusterNodeOptions, dir *modelir.SnapshotDir) (*modelir.ClusterNode, error) {
	n, err := modelir.RestoreClusterNode(self, topo, opt, dir, modelir.RestoreMap)
	if err != nil && errors.Is(err, modelir.ErrMapUnsupported) {
		return modelir.RestoreClusterNode(self, topo, opt, dir, modelir.RestoreCopy)
	}
	return n, err
}

// newDebugMux builds the opt-in profiling surface: the standard
// net/http/pprof handlers on a private mux (never the DefaultServeMux,
// and never mounted on the serving listener).
func newDebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// demoConfig sizes the synthetic archives the daemon serves.
type demoConfig struct {
	Shards, Cache, MaxWorkers     int
	Tuples, Scene, Regions, Wells int
	Seed                          int64
}

// demoData holds the generated demo archives, ready to ingest into an
// engine (single role) or a cluster node (node role, which keeps only
// its assigned partitions).
type demoData struct {
	pts     [][]float64
	scene   *modelir.SceneArchive
	weather []modelir.RegionSeries
	wells   []modelir.WellLog
}

// buildDemoData generates the four demo archives, one per model family.
// The generators are deterministic in cfg, so every node of a cluster
// derives the same archives and placement slices them consistently.
func buildDemoData(cfg demoConfig) (demoData, error) {
	var d demoData
	var err error
	if d.pts, err = modelir.GenerateTuples(cfg.Seed, cfg.Tuples, 3); err != nil {
		return d, fmt.Errorf("tuples: %w", err)
	}
	sc, err := modelir.GenerateScene(modelir.SceneConfig{Seed: cfg.Seed + 1, W: cfg.Scene, H: cfg.Scene})
	if err != nil {
		return d, fmt.Errorf("scene: %w", err)
	}
	if d.scene, err = modelir.BuildSceneArchive("scene", sc.Bands, modelir.ArchiveOptions{}); err != nil {
		return d, fmt.Errorf("scene archive: %w", err)
	}
	if d.weather, err = modelir.GenerateWeather(modelir.WeatherConfig{
		Seed: cfg.Seed + 2, Regions: cfg.Regions, Days: 365,
	}); err != nil {
		return d, fmt.Errorf("weather: %w", err)
	}
	if d.wells, _, err = modelir.GenerateWells(modelir.WellConfig{Seed: cfg.Seed + 3, Wells: cfg.Wells}); err != nil {
		return d, fmt.Errorf("wells: %w", err)
	}
	return d, nil
}

// buildEngine registers the demo archives on an in-process engine.
func buildEngine(cfg demoConfig) (*modelir.Engine, error) {
	e := modelir.NewEngineWithOptions(modelir.EngineOptions{
		Shards:       cfg.Shards,
		CacheEntries: cfg.Cache,
		MaxWorkers:   cfg.MaxWorkers,
	})
	data, err := buildDemoData(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.AddTuples("tuples", data.pts); err != nil {
		return nil, err
	}
	if err := e.AddScene("scene", data.scene); err != nil {
		return nil, err
	}
	if err := e.AddSeries("weather", data.weather); err != nil {
		return nil, err
	}
	if err := e.AddWells("basin", data.wells); err != nil {
		return nil, err
	}
	return e, nil
}
