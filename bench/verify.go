package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"modelir"
)

// wireResult is modelird's response shape for one request.
type wireResult struct {
	Items []struct {
		ID     int64   `json:"id"`
		Score  float64 `json:"score"`
		Strata []int   `json:"strata"`
	} `json:"items"`
	Stats struct {
		WallNS int64 `json:"wall_ns"`
	} `json:"stats"`
	Error string `json:"error"`
}

type wireBatchResponse struct {
	Results []wireResult `json:"results"`
}

// decodeResults parses a /run or /batch response body into one result
// per request.
func decodeResults(body []byte, batch bool) ([]wireResult, error) {
	if batch {
		var b wireBatchResponse
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		return b.Results, nil
	}
	var r wireResult
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return []wireResult{r}, nil
}

// sameAnswer compares a served result with the reference bit for bit:
// IDs, float64 score bits, and geology strata.
func sameAnswer(got wireResult, want modelir.Result) error {
	if len(got.Items) != len(want.Items) {
		return fmt.Errorf("%d items, reference has %d", len(got.Items), len(want.Items))
	}
	for i, w := range want.Items {
		g := got.Items[i]
		if g.ID != w.ID || math.Float64bits(g.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("item %d is (id %d, score %v), reference has (id %d, score %v)", i, g.ID, g.Score, w.ID, w.Score)
		}
		strata, _ := w.Payload.([]int)
		if len(g.Strata) != len(strata) {
			return fmt.Errorf("item %d has %d strata, reference has %d", i, len(g.Strata), len(strata))
		}
		for j := range strata {
			if g.Strata[j] != strata[j] {
				return fmt.Errorf("item %d stratum %d is %d, reference has %d", i, j, g.Strata[j], strata[j])
			}
		}
	}
	return nil
}

// checkBody compares the kept response of one operation with the
// reference engine's answers to the same requests.
func checkBody(ctx context.Context, ref *modelir.Engine, reqs []request, body []byte, batch bool) error {
	results, err := decodeResults(body, batch)
	if err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if len(results) != len(reqs) {
		return fmt.Errorf("%d results for %d requests", len(results), len(reqs))
	}
	for i, r := range reqs {
		req, err := r.compile()
		if err != nil {
			return err
		}
		want, err := ref.Run(ctx, req)
		if err != nil {
			return fmt.Errorf("reference run: %w", err)
		}
		if err := sameAnswer(results[i], want); err != nil {
			return fmt.Errorf("%s on %s: %w", r.Query.Kind, r.Dataset, err)
		}
	}
	return nil
}

// verifyKept checks every kept response of a read phase against the
// static reference; it returns how many it compared and the
// mismatches. Only read-only workloads use it: on the others the
// archive moves under the reads, and verifyQuiesced runs instead.
func verifyKept(ctx context.Context, ref *modelir.Engine, s *stream, p phaseResult) (checked int, bad []error) {
	for _, sm := range p.samples {
		if sm.body == nil || !sm.ok() {
			continue
		}
		checked++
		if err := checkBody(ctx, ref, s.requests(sm.idx), sm.body, s.w.Batch); err != nil {
			bad = append(bad, fmt.Errorf("operation %d: %w", sm.idx, err))
		}
	}
	return checked, bad
}
