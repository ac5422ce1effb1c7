package core

import (
	"context"
	"testing"

	"modelir/internal/archive"
	"modelir/internal/bayes"
	"modelir/internal/synth"
)

func knowledgeEngine(t *testing.T) (*Engine, *archive.Scene) {
	t.Helper()
	sc, err := synth.LandsatScene(synth.SceneConfig{Seed: 31, W: 128, H: 128})
	if err != nil {
		t.Fatal(err)
	}
	ar, err := archive.BuildScene("s", sc.Bands, archive.Options{TileSize: 16, PyramidLevels: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	if err := e.AddScene("s", ar); err != nil {
		t.Fatal(err)
	}
	return e, ar
}

func TestKnowledgeTopKTiles(t *testing.T) {
	e, ar := knowledgeEngine(t)
	rules := HPSTileRules()
	res := mustRun(t, e, Request{Dataset: "s", Query: KnowledgeQuery{Rules: rules}, K: 5})
	items, st := res.Items, res.Stats
	if st.Examined != len(ar.Tiles) || st.Pruned != 0 {
		t.Fatalf("scored %d of %d tiles (pruned %d)", st.Examined, len(ar.Tiles), st.Pruned)
	}
	if st.Evaluations != len(ar.Tiles)*rules.Len() {
		t.Fatalf("rule evaluations %d", st.Evaluations)
	}
	// Scores are valid rule grades, descending.
	for i, it := range items {
		if it.Score < 0 || it.Score > 1 {
			t.Fatalf("score %v out of [0,1]", it.Score)
		}
		if i > 0 && items[i-1].Score < it.Score {
			t.Fatal("results not descending")
		}
		if it.ID < 0 || int(it.ID) >= len(ar.Tiles) {
			t.Fatalf("tile id %d out of range", it.ID)
		}
	}
	// Top tile must actually satisfy the hard clauses: verify against
	// the stored features directly.
	if len(items) > 0 && items[0].Score > 0.99 {
		b4, _ := ar.BandIndex("b4")
		feat, err := ar.Feature(b4, int(items[0].ID))
		if err != nil {
			t.Fatal(err)
		}
		if feat.Stats.Mean < 160 {
			t.Fatalf("top tile b4 mean %v contradicts full score", feat.Stats.Mean)
		}
	}
}

func TestKnowledgeTopKTilesValidation(t *testing.T) {
	e, _ := knowledgeEngine(t)
	run := func(dataset string, rules *bayes.RuleSet, k int) error {
		_, err := e.Run(context.Background(), Request{Dataset: dataset, Query: KnowledgeQuery{Rules: rules}, K: k})
		return err
	}
	if err := run("s", nil, 5); err == nil {
		t.Fatal("want empty rules error")
	}
	if err := run("s", bayes.NewRuleSet(), 5); err == nil {
		t.Fatal("want empty rules error")
	}
	if err := run("missing", HPSTileRules(), 5); err == nil {
		t.Fatal("want unknown dataset error")
	}
	if err := run("s", HPSTileRules(), -1); err == nil {
		t.Fatal("want k error")
	}
}

func TestKnowledgeRulesDiscriminate(t *testing.T) {
	e, _ := knowledgeEngine(t)
	// A rule set demanding impossible values returns nothing.
	impossible := bayes.NewRuleSet().Require("b4.mean", bayes.Above{Lo: 10_000, Hi: 10_001})
	items := mustRun(t, e, Request{Dataset: "s", Query: KnowledgeQuery{Rules: impossible}, K: 5}).Items
	if len(items) != 0 {
		t.Fatalf("impossible rules matched %d tiles", len(items))
	}
	// A tautological rule set matches every tile at full grade.
	always := bayes.NewRuleSet().Require("b4.mean", bayes.Above{Lo: -1, Hi: 0})
	items = mustRun(t, e, Request{Dataset: "s", Query: KnowledgeQuery{Rules: always}, K: 1000}).Items
	if len(items) != 64 {
		t.Fatalf("tautology matched %d of 64 tiles", len(items))
	}
}
