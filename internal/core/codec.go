// The canonical request encoding: one byte form for what a request
// asks — dataset, K, MinScore, the query's family tag and its model's
// canonical bytes (AppendCanonical in internal/{linear,fsm,bayes}).
// The result cache keys on these bytes and a cluster 'Q' frame carries
// them as its body, so the cache and the wire can never disagree about
// what a request means.
//
// Two options stay out of it. Workers is ignored, so requests that
// differ only in Workers share a cache line; the 'Q' header still
// carries it. Budget makes a result a best-effort answer, so a
// budgeted request never enters the cache; the 'Q' header carries it
// too. A geology Method of zero is written as GeoDP, the evaluator it
// runs.
//
// Why equal bytes mean equal requests. It takes two halves. The encoder
// drops nothing but the above: DecodeRequest(AppendRequest(r)) equals r
// field by field, floats by their bits (TestRequestCodecRoundTrip, one
// request of every family), so two requests with equal bytes decode to
// one request and were equal. The decoder is strict: it accepts only
// bytes AppendRequest writes — fixed-width integers, checked flags and
// tags, length prefixes validated against the input, no trailing byte —
// so for every b it accepts, AppendRequest(DecodeRequest(b)) == b
// (FuzzRequestCodec): no byte is ignored and no request has a second
// spelling. The key needs no hash and no collision bound.

package core

import (
	"errors"
	"fmt"
	"math"

	"modelir/internal/bayes"
	"modelir/internal/canon"
	"modelir/internal/fsm"
	"modelir/internal/linear"
	"modelir/internal/synth"
)

// Family tags inside the request encoding.
const (
	tagLinear      = 'L'
	tagScene       = 'S'
	tagFSM         = 'M'
	tagFSMDistance = 'D'
	tagGeology     = 'G'
	tagKnowledge   = 'K'
)

// ErrUnencodableQuery reports a request the canonical encoding cannot
// carry: a nil model, an unknown Query implementation, an FSM prefilter
// that is not registered by name, or a rule set whose Membership the
// bayes package cannot serialize.
var ErrUnencodableQuery = errors.New("core: query not encodable")

// AppendRequest appends req's canonical encoding to b. On error the
// returned slice holds a partial encoding and must be discarded.
func AppendRequest(b []byte, req Request) ([]byte, error) {
	b = canon.AppendString(b, req.Dataset)
	b = canon.AppendUint(b, uint64(req.K))
	if req.MinScore != nil {
		b = canon.AppendFloat(append(b, 1), *req.MinScore)
	} else {
		b = append(b, 0)
	}
	switch q := req.Query.(type) {
	case LinearQuery:
		if q.Model != nil {
			return q.Model.AppendCanonical(append(b, tagLinear)), nil
		}
	case SceneQuery:
		if q.Model != nil {
			return q.Model.AppendCanonical(append(b, tagScene)), nil
		}
	case FSMQuery:
		name, ok := prefilterName(q.Prefilter)
		if !ok {
			return b, fmt.Errorf("%w: unregistered FSM prefilter", ErrUnencodableQuery)
		}
		if q.Machine != nil {
			return canon.AppendString(q.Machine.AppendCanonical(append(b, tagFSM)), name), nil
		}
	case FSMDistanceQuery:
		if q.Target != nil {
			return canon.AppendUint(q.Target.AppendCanonical(append(b, tagFSMDistance)), uint64(q.Horizon)), nil
		}
	case GeologyQuery:
		b = canon.AppendUint(append(b, tagGeology), uint64(len(q.Sequence)))
		for _, l := range q.Sequence {
			b = canon.AppendUint(b, uint64(l))
		}
		b = canon.AppendFloat(b, q.MaxGapFt)
		b = canon.AppendFloat(b, q.MinGamma)
		b = canon.AppendFloat(b, q.GammaRampAPI)
		method := q.Method
		if method == 0 {
			method = GeoDP // the execution default: encode what runs
		}
		return canon.AppendUint(b, uint64(method)), nil
	case KnowledgeQuery:
		if q.Rules != nil {
			b, ok := q.Rules.AppendCanonical(append(b, tagKnowledge))
			if !ok {
				return b, fmt.Errorf("%w: unserializable rule set membership", ErrUnencodableQuery)
			}
			return b, nil
		}
	default:
		return b, fmt.Errorf("%w: %T", ErrUnencodableQuery, req.Query)
	}
	return b, fmt.Errorf("%w: %T without a model", ErrUnencodableQuery, req.Query)
}

// DecodeRequest decodes one canonical request encoding, the whole of b.
// Workers and Budget come back zero. Malformed input, including
// trailing bytes, fails with an error wrapping canon.ErrCorrupt.
func DecodeRequest(b []byte) (Request, error) {
	var req Request
	r := canon.NewReader(b)
	var err error
	if req.Dataset, err = r.String(); err != nil {
		return req, err
	}
	k, err := r.Uint()
	if err != nil {
		return req, err
	}
	if k > math.MaxInt32 {
		return req, fmt.Errorf("%w: K %d", canon.ErrCorrupt, k)
	}
	req.K = int(k)
	hasMin, err := r.Byte()
	if err != nil {
		return req, err
	}
	switch hasMin {
	case 0:
	case 1:
		ms, err := r.Float()
		if err != nil {
			return req, err
		}
		req.MinScore = &ms
	default:
		return req, canon.ErrCorrupt
	}
	if req.Query, err = decodeQuery(r); err != nil {
		return req, err
	}
	if r.Remaining() != 0 {
		return req, fmt.Errorf("%w: %d trailing bytes", canon.ErrCorrupt, r.Remaining())
	}
	return req, nil
}

// decodeQuery consumes a family tag and that family's model bytes.
func decodeQuery(r *canon.Reader) (Query, error) {
	tag, err := r.Byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLinear:
		m, err := linear.DecodeCanonical(r)
		return LinearQuery{Model: m}, err
	case tagScene:
		pm, err := linear.DecodeProgressive(r)
		return SceneQuery{Model: pm}, err
	case tagFSM:
		m, err := fsm.DecodeCanonical(r)
		if err != nil {
			return nil, err
		}
		name, err := r.String()
		if err != nil {
			return nil, err
		}
		pf, err := prefilterByName(name)
		return FSMQuery{Machine: m, Prefilter: pf}, err
	case tagFSMDistance:
		m, err := fsm.DecodeCanonical(r)
		if err != nil {
			return nil, err
		}
		h, err := r.Uint()
		if err == nil && h > math.MaxInt32 {
			err = canon.ErrCorrupt
		}
		return FSMDistanceQuery{Target: m, Horizon: int(h)}, err
	case tagGeology:
		return decodeGeology(r)
	case tagKnowledge:
		rs, err := bayes.DecodeRuleSet(r)
		return KnowledgeQuery{Rules: rs}, err
	default:
		return nil, fmt.Errorf("%w: query family %q", canon.ErrCorrupt, tag)
	}
}

func decodeGeology(r *canon.Reader) (Query, error) {
	var q GeologyQuery
	n, err := r.Count(8)
	if err != nil {
		return nil, err
	}
	q.Sequence = make([]synth.Lithology, n)
	for i := range q.Sequence {
		u, err := r.Uint()
		if err != nil {
			return nil, err
		}
		if u > math.MaxInt32 {
			return nil, canon.ErrCorrupt
		}
		q.Sequence[i] = synth.Lithology(u)
	}
	for _, dst := range []*float64{&q.MaxGapFt, &q.MinGamma, &q.GammaRampAPI} {
		if *dst, err = r.Float(); err != nil {
			return nil, err
		}
	}
	u, err := r.Uint()
	if err != nil {
		return nil, err
	}
	// The encoder writes Method 0 as GeoDP, so a zero never arrives.
	if u == 0 || u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: geology method %d", canon.ErrCorrupt, u)
	}
	q.Method = GeologyMethod(u)
	return q, nil
}
