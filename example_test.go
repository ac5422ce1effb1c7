package modelir_test

import (
	"context"
	"fmt"
	"log"

	"modelir"
)

// Retrieval by linear model over a tuple archive through the unified
// request API: the library's core loop.
func ExampleEngine_Run() {
	points := [][]float64{
		{1, 0, 0},
		{0, 2, 0},
		{5, 5, 5},
		{-1, -1, -1},
	}
	engine := modelir.NewEngine()
	if err := engine.AddTuples("demo", points); err != nil {
		log.Fatal(err)
	}
	model, err := modelir.NewLinearModel([]string{"a", "b", "c"}, []float64{1, 1, 1}, 0)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Run(context.Background(), modelir.Request{
		Dataset: "demo",
		Query:   modelir.LinearQuery{Model: model},
		K:       2,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range res.Items {
		fmt.Printf("tuple %d scores %.0f\n", it.ID, it.Score)
	}
	// Output:
	// tuple 2 scores 15
	// tuple 1 scores 2
}

// The paper's HPS risk model evaluated at one location.
func ExampleHPSRiskModel() {
	m := modelir.HPSRiskModel()
	// Band 4 = 100 DN, band 5 = 50 DN, band 7 = 20 DN, elevation 300 m.
	r, err := m.Eval([]float64{100, 50, 20, 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R = %.2f\n", r)
	// Output:
	// R = 113.36
}

// The Fig. 1 fire-ants machine: rain, then three dry days, the third
// at or above 25°C.
func ExampleFireAntsModel() {
	m := modelir.FireAntsModel()
	const (
		rain    = modelir.Event(0)
		dryHot  = modelir.Event(1)
		dryCold = modelir.Event(2)
	)
	res, err := m.Run([]modelir.Event{rain, dryHot, dryCold, dryHot})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ants fly after day %d\n", res.FirstAccept+1)
	// Output:
	// ants fly after day 4
}

// Credit scoring with the published calibration anchors.
func ExampleForeclosureProbability() {
	fmt.Printf("P(foreclose | 680) = %.0f%%\n", 100*modelir.ForeclosureProbability(680))
	fmt.Printf("P(foreclose | 620) = %.0f%%\n", 100*modelir.ForeclosureProbability(620))
	// Output:
	// P(foreclose | 680) = 2%
	// P(foreclose | 620) = 8%
}

// Fig. 5 workflow: calibrate a model from observations, then revise it
// with retrieved-and-verified rows.
func ExampleNewWorkflow() {
	wf, err := modelir.NewWorkflow([]string{"soil_temp"})
	if err != nil {
		log.Fatal(err)
	}
	// Grasshopper activity is 2·soil_temp + 1 in this toy calibration.
	m, err := wf.Calibrate(
		[][]float64{{0}, {1}, {2}, {3}},
		[]float64{1, 3, 5, 7},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("activity = %.0f + %.0f·soil_temp\n", m.Intercept, m.Coeffs[0])
	// Output:
	// activity = 1 + 2·soil_temp
}
