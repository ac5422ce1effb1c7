// Quickstart: build a tuple archive, pose a linear model query through
// the unified Engine.Run entry point, then batch several models in one
// RunBatch call — the smallest end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"modelir"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. A synthetic archive: 100k three-attribute Gaussian tuples (the
	//    workload the paper's Onion speedups were measured on).
	points, err := modelir.GenerateTuples(42, 100_000, 3)
	if err != nil {
		return err
	}
	engine := modelir.NewEngine()
	if err := engine.AddTuples("demo", points); err != nil {
		return err
	}

	// 2. The query is a model, not a template: maximize a weighted
	//    combination of the three attributes.
	model, err := modelir.NewLinearModel(
		[]string{"x1", "x2", "x3"},
		[]float64{0.443, 0.222, 0.153},
		0,
	)
	if err != nil {
		return err
	}

	// 3. Top-10 retrieval through the unified request API: one entry
	//    point for every model family, with a deadline attached.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := engine.Run(ctx, modelir.Request{
		Dataset: "demo",
		Query:   modelir.LinearQuery{Model: model},
		K:       10,
	})
	if err != nil {
		return err
	}

	fmt.Println("top-10 tuples maximizing the model:")
	for i, it := range res.Items {
		p := points[it.ID]
		fmt.Printf("  %2d. tuple %6d  score %.4f  (%.3f, %.3f, %.3f)\n",
			i+1, it.ID, it.Score, p[0], p[1], p[2])
	}
	st := res.Stats
	fmt.Printf("\nwork: %s query evaluated %d of %d candidates across %d shards in %v — %.0fx fewer than a scan\n",
		st.Kind, st.Examined, st.Examined+st.Pruned, st.Shards, st.Wall.Round(time.Microsecond),
		float64(st.Examined+st.Pruned)/float64(st.Examined))

	// 4. Several models in one call: RunBatch runs them on one shared
	//    worker pool, and each answer is the one Run would return. The
	//    second model minimizes the first (negated coefficients).
	low, err := modelir.NewLinearModel(
		[]string{"x1", "x2", "x3"},
		[]float64{-0.443, -0.222, -0.153},
		0,
	)
	if err != nil {
		return err
	}
	batch, err := engine.RunBatch(ctx, []modelir.Request{
		{Dataset: "demo", Query: modelir.LinearQuery{Model: model}, K: 3},
		{Dataset: "demo", Query: modelir.LinearQuery{Model: low}, K: 3},
	})
	if err != nil {
		return err
	}
	fmt.Println("\nbatch of two models:")
	for i, br := range batch {
		if br.Err != nil {
			return br.Err
		}
		fmt.Printf("  model %d: best tuple %6d  score %.4f  (%d examined)\n",
			i+1, br.Result.Items[0].ID, br.Result.Items[0].Score, br.Result.Stats.Examined)
	}
	return nil
}
