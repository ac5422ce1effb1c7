// Fire ants (Fig. 1): a finite-state model over a multi-region daily
// weather archive. A region's ants fly after rain, three or more dry
// days, and a day at or above 25°C. The example retrieves the top
// fly-risk regions, shows the metadata-level pruning win, and ranks a
// corrupted-sensor region by FSM distance.
package main

import (
	"context"
	"fmt"
	"log"

	"modelir"
	"modelir/internal/fsm"
	"modelir/internal/synth"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	archive, err := modelir.GenerateWeather(modelir.WeatherConfig{
		Seed: 11, Regions: 500, Days: 730,
	})
	if err != nil {
		return err
	}
	engine := modelir.NewEngine()
	if err := engine.AddSeries("plains", archive); err != nil {
		return err
	}
	machine := modelir.FireAntsModel()
	ctx := context.Background()

	// Baseline: run the machine over every region's full series.
	base, err := engine.Run(ctx, modelir.Request{
		Dataset: "plains",
		Query:   modelir.FSMQuery{Machine: machine},
		K:       10,
	})
	if err != nil {
		return err
	}
	fmt.Println("top-10 fire-ant fly-risk regions:")
	for i, it := range base.Items {
		st := synth.SummarizeSeries(archive[it.ID])
		fmt.Printf("  %2d. region %3d  score %.3f  (max dry spell %d days)\n",
			i+1, it.ID, it.Score, st.MaxDrySpell)
	}

	// Metadata pruning: regions whose summaries prove a zero score are
	// skipped without scanning their days.
	pruned, err := engine.Run(ctx, modelir.Request{
		Dataset: "plains",
		Query:   modelir.FSMQuery{Machine: machine, Prefilter: modelir.FireAntsPrefilter},
		K:       10,
	})
	if err != nil {
		return err
	}
	ps := pruned.Stats
	fmt.Printf("\nscan work: %d days flat, %d with metadata pruning (%d/%d regions skipped)\n",
		base.Stats.Evaluations, ps.Evaluations, ps.Pruned, ps.Examined+ps.Pruned)

	// FSM distance: a hypothetical competing model that flies after only
	// two dry days — how far is it behaviorally from Fig. 1?
	b := modelir.NewMachineBuilder(fsm.FireAntsAlphabet)
	rain := b.State("rain")
	dry1 := b.State("dry-1")
	fly := b.State("fly")
	b.Start(rain).Accept(fly)
	for _, s := range []int{rain, dry1, fly} {
		b.On(s, fsm.EvRain, rain)
	}
	b.On(rain, fsm.EvDryHot, dry1).On(rain, fsm.EvDryCold, dry1)
	b.On(dry1, fsm.EvDryHot, fly).On(dry1, fsm.EvDryCold, dry1)
	b.On(fly, fsm.EvDryHot, fly).On(fly, fsm.EvDryCold, fly)
	eager, err := b.Build()
	if err != nil {
		return err
	}
	d, err := modelir.MachineDistance(machine, eager, 14)
	if err != nil {
		return err
	}
	fmt.Printf("\nbehavioral distance(Fig.1, fly-after-2-dry-days) over 14-day windows: %.4f\n", d)
	return nil
}
