package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"modelir"
)

// rawData is the synthetic source data of archive A, made from the
// seed alone. Building engines and indexes over it is the system's
// set-up; generating it is not, and happens once per run.
type rawData struct {
	sz      sizes
	tuples  [][]float64
	stream  [][]float64
	bands   *modelir.Multiband
	weather []modelir.RegionSeries
	wells   []modelir.WellLog
}

func generate(seed int64, sz sizes) (*rawData, error) {
	d := &rawData{sz: sz}
	sub := func(i uint64) int64 { return int64(newRNG(seed, streamArchive, i).u64() >> 1) }
	var err error
	if d.tuples, err = modelir.GenerateTuples(sub(0), sz.Tuples, sz.TupleDims); err != nil {
		return nil, fmt.Errorf("tuples8: %w", err)
	}
	if d.stream, err = modelir.GenerateTuples(sub(1), sz.Stream, sz.StreamDims); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	sc, err := modelir.GenerateScene(modelir.SceneConfig{Seed: sub(2), W: sz.Scene, H: sz.Scene})
	if err != nil {
		return nil, fmt.Errorf("scene: %w", err)
	}
	d.bands = sc.Bands
	if d.weather, err = modelir.GenerateWeather(modelir.WeatherConfig{Seed: sub(3), Regions: sz.Regions, Days: sz.Days}); err != nil {
		return nil, fmt.Errorf("weather: %w", err)
	}
	if d.wells, _, err = modelir.GenerateWells(modelir.WellConfig{Seed: sub(4), Wells: sz.Wells}); err != nil {
		return nil, fmt.Errorf("basin: %w", err)
	}
	return d, nil
}

// userBytes is the payload size of the raw data, the denominator of
// segment.bytes_per_user_byte.
func (d *rawData) userBytes() int {
	n := 8 * (len(d.tuples)*d.sz.TupleDims + len(d.stream)*d.sz.StreamDims)
	n += 8 * d.sz.Scene * d.sz.Scene * 4 // four float64 bands
	n += len(d.weather) * d.sz.Days * 24 // rain flag, rain mm and temperature per day
	for _, w := range d.wells {
		n += 32*len(w.Strata) + 8*len(w.Gamma)
	}
	return n
}

// archiveSink is what both an engine and a cluster node offer for
// registering archive A.
type archiveSink interface {
	AddTuples(name string, points [][]float64) error
	AddScene(name string, sc *modelir.SceneArchive) error
	AddSeries(name string, rs []modelir.RegionSeries) error
	AddWells(name string, ws []modelir.WellLog) error
}

// register builds the progressive scene representation and registers
// the five datasets. Tuple rows are copied: engines keep the slices
// they are given, and appends must not leak between set-ups.
func (d *rawData) register(dst archiveSink) error {
	sa, err := modelir.BuildSceneArchive("scene", d.bands, modelir.ArchiveOptions{})
	if err != nil {
		return fmt.Errorf("scene archive: %w", err)
	}
	if err := dst.AddTuples("tuples8", append([][]float64(nil), d.tuples...)); err != nil {
		return err
	}
	if err := dst.AddTuples("stream", append([][]float64(nil), d.stream...)); err != nil {
		return err
	}
	if err := dst.AddScene("scene", sa); err != nil {
		return err
	}
	if err := dst.AddSeries("weather", d.weather); err != nil {
		return err
	}
	return dst.AddWells("basin", d.wells)
}

// forcingRequests is one linear query per tuple dataset: the Onion
// indexes are lazy, and a served archive must not pay for them on its
// first request.
func forcingRequests(sz sizes) []modelir.Request {
	var out []modelir.Request
	for _, r := range []request{
		genRequest(newRNG(0, streamWarm, 0), "linear", sz, false, true),
		genRequest(newRNG(0, streamWarm, 1), "linear", sz, true, true),
	} {
		req, err := r.compile()
		if err != nil {
			panic(err) // generated linear requests always compile
		}
		out = append(out, req)
	}
	return out
}

// buildEngine registers archive A on a fresh engine and forces every
// lazy index.
func buildEngine(ctx context.Context, d *rawData, opt modelir.EngineOptions) (*modelir.Engine, error) {
	e := modelir.NewEngineWithOptions(opt)
	if err := d.register(e); err != nil {
		return nil, err
	}
	for _, req := range forcingRequests(d.sz) {
		if _, err := e.Run(ctx, req); err != nil {
			return nil, fmt.Errorf("force index of %s: %w", req.Dataset, err)
		}
	}
	return e, nil
}

// snapshotSingle builds the single role's engine and snapshots it into
// dir, where modelird -data-dir restores it.
func snapshotSingle(ctx context.Context, d *rawData, shards int, dir string) error {
	e, err := buildEngine(ctx, d, modelir.EngineOptions{Shards: shards})
	if err != nil {
		return err
	}
	defer e.Close()
	sd, err := modelir.NewSnapshotDir(dir)
	if err != nil {
		return err
	}
	return e.Snapshot(ctx, sd)
}

// buildNodes creates one cluster node per topology address and
// registers datasets on each, the nodes concurrently.
func buildNodes(topo modelir.ClusterTopology, shards int, register func(archiveSink) error) ([]*modelir.ClusterNode, error) {
	opt := modelir.ClusterNodeOptions{Shards: shards}
	nodes := make([]*modelir.ClusterNode, len(topo.Nodes))
	errs := make([]error, len(topo.Nodes))
	var wg sync.WaitGroup
	for i, addr := range topo.Nodes {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			nodes[i] = modelir.NewClusterNode(addr, topo, opt)
			errs[i] = register(nodes[i])
		}(i, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, n := range nodes {
				n.Close()
			}
			return nil, err
		}
	}
	return nodes, nil
}

// snapshotCluster builds every node's partitions and snapshots node i
// into dir/node<i>, where modelird -role node -data-dir restores it.
// Node snapshots build the Onion indexes, so a node needs no forcing
// query.
func snapshotCluster(ctx context.Context, d *rawData, topo modelir.ClusterTopology, shards int, dir string) ([]string, error) {
	nodes, err := buildNodes(topo, shards, d.register)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("node%d", i))
		wg.Add(1)
		go func(i int, n *modelir.ClusterNode) {
			defer wg.Done()
			defer n.Close()
			sd, err := modelir.NewSnapshotDir(dirs[i])
			if err == nil {
				err = n.Snapshot(ctx, sd)
			}
			errs[i] = err
		}(i, n)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}
