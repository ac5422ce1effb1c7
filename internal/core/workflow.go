package core

import (
	"errors"
	"fmt"

	"modelir/internal/linear"
)

// Workflow realizes the Fig. 5 loop for linear models:
//
//  1. develop a hypothetical decision model;
//  2. fit the model to calibration data;
//  3. use the model to retrieve data satisfying it;
//  4. use the retrieved data to revise the model;
//  5. apply the revised model to a much bigger data set;
//  6. repeat 3-4 as necessary.
//
// The workflow accumulates calibration rows across fits, so each
// Calibrate call — the first (step 2) or one folding in retrieved-and-
// verified rows (step 4) — refits on everything seen so far: the paper's
// "generalize the model through learning and relevance feedback".
type Workflow struct {
	attrs []string
	xs    [][]float64
	ys    []float64
	// Revisions counts completed fits.
	Revisions int
}

// NewWorkflow starts a workflow for models over the given attributes.
func NewWorkflow(attrs []string) (*Workflow, error) {
	if len(attrs) == 0 {
		return nil, errors.New("core: workflow needs attributes")
	}
	a := make([]string, len(attrs))
	copy(a, attrs)
	return &Workflow{attrs: a}, nil
}

// Calibrate folds training rows into the calibration set and refits
// (step 2, and step 4 when the rows are retrieved-and-verified ones).
func (w *Workflow) Calibrate(xs [][]float64, ys []float64) (*linear.Model, error) {
	if err := w.absorb(xs, ys); err != nil {
		return nil, err
	}
	return w.refit()
}

// TrainingSize returns the accumulated calibration rows.
func (w *Workflow) TrainingSize() int { return len(w.xs) }

func (w *Workflow) absorb(xs [][]float64, ys []float64) error {
	if len(xs) == 0 || len(xs) != len(ys) {
		return errors.New("core: bad calibration rows")
	}
	for i, x := range xs {
		if len(x) != len(w.attrs) {
			return fmt.Errorf("core: row %d has %d values, want %d", i, len(x), len(w.attrs))
		}
	}
	w.xs = append(w.xs, xs...)
	w.ys = append(w.ys, ys...)
	return nil
}

func (w *Workflow) refit() (*linear.Model, error) {
	m, err := linear.Fit(w.attrs, w.xs, w.ys)
	if err != nil {
		return nil, err
	}
	w.Revisions++
	return m, nil
}
