package core

import "modelir/internal/bayes"

// Knowledge-model retrieval over the archive's *features* abstraction
// level: a fuzzy RuleSet (Section 2.3) is evaluated per tile against
// the tile's stored band statistics, without touching raw pixels — the
// "semantics and features … at lower data volumes" path of Section 3.1.
//
// Feature names follow "<band>.<stat>" with stat one of mean, std, min,
// max (e.g. "b4.mean", "elev.max").

// HPSTileRules compiles the Fig. 3 knowledge model into a feature-level
// rule set usable as a KnowledgeQuery on a Landsat-like archive:
// vegetated surroundings (high b4), dry-season signal (high b5), modest
// elevation. Thresholds are expressed as fuzzy ramps over digital
// numbers / meters.
func HPSTileRules() *bayes.RuleSet {
	return bayes.NewRuleSet().
		Require("b4.mean", bayes.Above{Lo: 120, Hi: 160}).
		Require("b5.mean", bayes.Above{Lo: 80, Hi: 120}).
		Add("elev.mean", bayes.Below{Lo: 800, Hi: 1200}, 0.5)
}
