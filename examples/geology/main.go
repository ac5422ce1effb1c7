// Oil/gas exploration (Fig. 4): a knowledge-model query over a well-log
// archive — find wells whose strata show shale on top of sandstone on
// top of siltstone, adjacent within 10 ft, with gamma-ray response above
// 45 API. The composite query runs through SPROC's dynamic-programming
// pruning and is validated against the brute-force oracle.
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"

	"modelir"
	"modelir/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	wells, planted, err := modelir.GenerateWells(modelir.WellConfig{Seed: 21, Wells: 300})
	if err != nil {
		return err
	}
	engine := modelir.NewEngine()
	if err := engine.AddWells("basin", wells); err != nil {
		return err
	}

	query := modelir.GeologyQuery{
		Sequence:     []modelir.Lithology{modelir.Shale, modelir.Sandstone, modelir.Siltstone},
		MaxGapFt:     10,
		MinGamma:     45,
		GammaRampAPI: 5, // fuzzy edge: 40 API grades 0, 50 API grades 1
	}

	ctx := context.Background()
	query.Method = modelir.GeoDP
	dp, err := engine.Run(ctx, modelir.Request{Dataset: "basin", Query: query, K: 10})
	if err != nil {
		return err
	}
	matches, err := modelir.WellMatches(dp.Items)
	if err != nil {
		return err
	}
	fmt.Println("top-10 riverbed candidates (shale/sandstone/siltstone, gamma > 45):")
	for i, m := range matches {
		s := wells[m.Well].Strata[m.Strata[0]]
		fmt.Printf("  %2d. well %3d  score %.3f  top of sequence at %.0f ft\n",
			i+1, m.Well, m.Score, s.TopFt)
	}

	// Work comparison against the brute-force oracle (Stats.Evaluations
	// counts unary+pair grades). GeoDP and GeoPruned run the same
	// floored DP: a well with a slot no stratum can fill at the running
	// top-10 floor is rejected before its pair DP (Stats.Pruned).
	query.Method = modelir.GeoBruteForce
	brute, err := engine.Run(ctx, modelir.Request{Dataset: "basin", Query: query, K: 10})
	if err != nil {
		return err
	}
	fmt.Printf("\nfuzzy-grade evaluations: brute force %d, DP %d (%.1fx less), same answer: %v\n",
		brute.Stats.Evaluations, dp.Stats.Evaluations,
		float64(brute.Stats.Evaluations)/float64(dp.Stats.Evaluations),
		reflect.DeepEqual(brute.Items, dp.Items))
	fmt.Printf("wells rejected before the pair DP: %d of %d\n", dp.Stats.Pruned, len(wells))

	// Validation against the oracle on the planted ground truth. A
	// MinScore floor retrieves exactly the full-score wells.
	found := 0
	retrieved := make(map[int]bool, len(matches))
	fullScore := 0.999
	query.Method = modelir.GeoDP
	allRes, err := engine.Run(ctx, modelir.Request{
		Dataset: "basin", Query: query, K: len(wells), MinScore: &fullScore,
	})
	if err != nil {
		return err
	}
	all, err := modelir.WellMatches(allRes.Items)
	if err != nil {
		return err
	}
	for _, m := range all {
		if m.Score >= 0.999 {
			retrieved[m.Well] = true
		}
	}
	for _, w := range planted {
		if retrieved[w] && synth.HasRiverbedSignature(wells[w], query.MaxGapFt, query.MinGamma) {
			found++
		}
	}
	fmt.Printf("ground truth: %d/%d planted riverbed wells retrieved at full score\n",
		found, len(planted))
	return nil
}
