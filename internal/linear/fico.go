package linear

import (
	"math"
)

// FICO-style credit scoring: Section 2.1's second linear-model example.
// The real model has "several hundred parameters" and is proprietary; per
// the substitution rule we build a 12-attribute surrogate with the
// published structure (score = 900 − Σ aᵢXᵢ, range 300–900) and the
// published calibration anchors (P[foreclosure] < 2% above 680, ≈ 8%
// below 620).

// CreditAttrs names the surrogate's penalty attributes. Each is a
// non-negative severity in [0, 1] (already normalized by the feature
// pipeline), so the maximum total penalty is the sum of weights.
var CreditAttrs = []string{
	"late_payments_30d",
	"late_payments_90d",
	"utilization",
	"short_history",
	"short_residence",
	"employment_gaps",
	"bankruptcies",
	"charge_offs",
	"collections",
	"recent_inquiries",
	"thin_file",
	"high_balance_count",
}

// creditWeights sum to 600 so scores span exactly [300, 900].
var creditWeights = []float64{
	95,  // late_payments_30d
	120, // late_payments_90d
	70,  // utilization
	45,  // short_history
	20,  // short_residence
	30,  // employment_gaps
	90,  // bankruptcies
	55,  // charge_offs
	40,  // collections
	15,  // recent_inquiries
	10,  // thin_file
	10,  // high_balance_count
}

// CreditScore returns the surrogate scoring model:
// score = 900 − Σ wᵢ·Xᵢ with Xᵢ ∈ [0,1].
func CreditScore() *Model {
	neg := make([]float64, len(creditWeights))
	for i, w := range creditWeights {
		neg[i] = -w
	}
	m, err := New(CreditAttrs, neg, 900)
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return m
}

// ForeclosureProbability maps a score to an (approximate) foreclosure
// probability using a logistic calibrated to the paper's two anchors:
// 2% at 680 and 8% at 620.
func ForeclosureProbability(score float64) float64 {
	// Solve p = 1/(1+e^{a(s-s0)}) through (680, 0.02) and (620, 0.08):
	// logit(0.02) = -3.8918, logit(0.08) = -2.4423 -> slope over 60 pts.
	const (
		slope = (3.8918202981106265 - 2.4423470353692043) / 60 // per point
		mid   = 680.0
		base  = 3.8918202981106265
	)
	z := base + (score-mid)*slope
	return 1 / (1 + math.Exp(z))
}
