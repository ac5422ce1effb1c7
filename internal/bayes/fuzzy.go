// Package bayes implements the paper's knowledge models (Section 2.3)
// in the form this system serves them: fuzzy rule sets (RuleSet, and
// CompiledRuleSet for columnar scoring) graded per tile by the knowledge
// query family, plus the Gaussian naive-Bayes classifier behind
// progressive classification [13]. The Fig. 3 Bayesian network is not
// reproduced as a network: core.HPSTileRules carries its high-risk-house
// knowledge as a feature-level rule set.
package bayes

import (
	"errors"
	"fmt"
)

// Fuzzy predicates for knowledge models (Section 3: "the Bayesian network
// and knowledge models are used to locate the top-K data patterns that
// satisfy the fuzzy and/or probabilistic rules specified within the
// model"). A Membership maps a scalar observation to a degree of truth
// in [0, 1]; rule sets combine memberships with min/max semantics.

// Membership is a fuzzy membership function.
type Membership interface {
	// Grade returns the degree of membership of v, in [0, 1].
	Grade(v float64) float64
}

// Trapezoid is the classic trapezoidal membership function: 0 below a,
// rising on [a,b], 1 on [b,c], falling on [c,d], 0 above d. Set a==b for
// a left shoulder, c==d for a right shoulder.
type Trapezoid struct {
	A, B, C, D float64
}

// NewTrapezoid validates a <= b <= c <= d.
func NewTrapezoid(a, b, c, d float64) (Trapezoid, error) {
	if !(a <= b && b <= c && c <= d) {
		return Trapezoid{}, fmt.Errorf("bayes: trapezoid %v,%v,%v,%v not ordered", a, b, c, d)
	}
	return Trapezoid{A: a, B: b, C: c, D: d}, nil
}

// Grade implements Membership.
func (t Trapezoid) Grade(v float64) float64 {
	switch {
	case v < t.A || v > t.D:
		return 0
	case v >= t.B && v <= t.C:
		return 1
	case v < t.B:
		if t.B == t.A {
			return 1
		}
		return (v - t.A) / (t.B - t.A)
	default:
		if t.D == t.C {
			return 1
		}
		return (t.D - v) / (t.D - t.C)
	}
}

var _ Membership = Trapezoid{}

// Above is a smooth step: 0 below lo, 1 above hi, linear in between —
// "gamma ray higher than 45" becomes Above{40, 50} to grade near-misses.
type Above struct {
	Lo, Hi float64
}

// Grade implements Membership.
func (a Above) Grade(v float64) float64 {
	if a.Hi <= a.Lo {
		// Crisp threshold.
		if v >= a.Lo {
			return 1
		}
		return 0
	}
	switch {
	case v <= a.Lo:
		return 0
	case v >= a.Hi:
		return 1
	default:
		return (v - a.Lo) / (a.Hi - a.Lo)
	}
}

var _ Membership = Above{}

// Below mirrors Above: 1 below lo, 0 above hi.
type Below struct {
	Lo, Hi float64
}

// Grade implements Membership.
func (b Below) Grade(v float64) float64 {
	if b.Hi <= b.Lo {
		if v <= b.Lo {
			return 1
		}
		return 0
	}
	switch {
	case v <= b.Lo:
		return 1
	case v >= b.Hi:
		return 0
	default:
		return (b.Hi - v) / (b.Hi - b.Lo)
	}
}

var _ Membership = Below{}

// Clause is one fuzzy condition: a named feature graded by a membership.
type Clause struct {
	Feature string
	Member  Membership
}

// RuleSet conjoins clauses (fuzzy AND = min) into a knowledge-model score.
// Weights allow soft clauses: a clause's grade g becomes 1-w+w·g, so w=1
// is a hard conjunct and w→0 makes it advisory.
type RuleSet struct {
	clauses []Clause
	weights []float64
}

// NewRuleSet starts an empty rule set.
func NewRuleSet() *RuleSet { return &RuleSet{} }

// Require adds a hard clause (weight 1).
func (r *RuleSet) Require(feature string, m Membership) *RuleSet {
	return r.Add(feature, m, 1)
}

// Add appends a clause with the given weight in (0, 1].
func (r *RuleSet) Add(feature string, m Membership, weight float64) *RuleSet {
	r.clauses = append(r.clauses, Clause{Feature: feature, Member: m})
	r.weights = append(r.weights, weight)
	return r
}

// Len returns the number of clauses.
func (r *RuleSet) Len() int { return len(r.clauses) }

// CompiledRuleSet is a RuleSet bound to a fixed feature-column order:
// every clause's feature name is resolved to a column index once, so
// scoring a candidate is a pass over a flat []float64 row — no map
// construction, no string hashing per candidate. This is the knowledge
// family's columnar scan kernel: the engine lays tile features out as
// one flat matrix at ingest and compiles the query's rule set against
// the matrix's column names at plan time.
type CompiledRuleSet struct {
	cols    []int // column index per clause; -1 = unknown feature
	members []Membership
	weights []float64
}

// Compile resolves the rule set against a column-name table. Unknown
// feature names compile to the missing-feature grade (0), exactly as
// Score treats features absent from its map. Weight validation happens
// here once instead of on every Score call; the errors match.
func (r *RuleSet) Compile(columns []string) (*CompiledRuleSet, error) {
	if len(r.clauses) == 0 {
		return nil, errors.New("bayes: empty rule set")
	}
	idx := make(map[string]int, len(columns))
	for i, n := range columns {
		idx[n] = i
	}
	c := &CompiledRuleSet{
		cols:    make([]int, len(r.clauses)),
		members: make([]Membership, len(r.clauses)),
		weights: make([]float64, len(r.clauses)),
	}
	for i, cl := range r.clauses {
		w := r.weights[i]
		if w <= 0 || w > 1 {
			return nil, fmt.Errorf("bayes: clause %d weight %v outside (0,1]", i, w)
		}
		col, ok := idx[cl.Feature]
		if !ok {
			col = -1
		}
		c.cols[i] = col
		c.members[i] = cl.Member
		c.weights[i] = w
	}
	return c, nil
}

// ScoreRow grades one feature row (indexed by the column order Compile
// was given). The arithmetic is identical to RuleSet.Score — min over
// clauses of the weighted grade, missing features grading 0 — so
// compiled and map-based scoring are bit-identical.
func (c *CompiledRuleSet) ScoreRow(row []float64) float64 {
	score := 1.0
	for i, col := range c.cols {
		g := 0.0
		if col >= 0 {
			g = c.members[i].Grade(row[col])
		}
		w := c.weights[i]
		soft := 1 - w + w*g
		if soft < score {
			score = soft
		}
	}
	return score
}

// Score grades a feature map: min over clauses of the weighted grade.
// Missing features score 0 (a hard clause then zeroes the result).
func (r *RuleSet) Score(featureValues map[string]float64) (float64, error) {
	if len(r.clauses) == 0 {
		return 0, errors.New("bayes: empty rule set")
	}
	score := 1.0
	for i, c := range r.clauses {
		w := r.weights[i]
		if w <= 0 || w > 1 {
			return 0, fmt.Errorf("bayes: clause %d weight %v outside (0,1]", i, w)
		}
		g := 0.0
		if v, ok := featureValues[c.Feature]; ok {
			g = c.Member.Grade(v)
		}
		soft := 1 - w + w*g
		if soft < score {
			score = soft
		}
	}
	return score, nil
}
