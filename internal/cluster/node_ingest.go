// The node side of replicated ingest: 'A' (append) and 'U' (seq-state)
// streams arriving on a router's connection (node.go's read loop
// dispatches them here). Every partition carries a monotone append cursor — the
// last sequence number it applied — which makes appends idempotent:
// a batch at or below the cursor acks as a duplicate without touching
// the engine (safe router retries and catch-up replays), a batch one
// above applies and advances it, and anything further ahead is a
// sequence gap the node refuses (the router quarantines the replica
// and closes the gap via catch-up). A batch the engine refuses leaves
// the cursor where it was (ErrAppendRefused).

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"modelir/internal/core"
)

// ErrSeqGap reports an append batch whose sequence number skips ahead
// of the partition's cursor: the node is missing earlier batches and
// must catch up before it can accept this one.
var ErrSeqGap = errors.New("cluster: append sequence gap")

// ErrAppendRefused reports a batch the node's engine would not take
// (rows of the wrong width, ragged or non-finite rows, malformed series
// or wells). Nothing was applied and the cursor did not move.
var ErrAppendRefused = errors.New("cluster: append refused")

// partIngest is one partition's append cursor. Its lock serializes
// appends to the partition (sequence order is the correctness
// invariant); different partitions apply in parallel.
type partIngest struct {
	mu sync.Mutex
	// lastSeq is written under mu; it is atomic so a seq-state report
	// can read it without queueing behind an append in progress.
	lastSeq atomic.Uint64
}

func (n *Node) partIngest(dataset string, part int) *partIngest {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.ingests[dataset] == nil {
		n.ingests[dataset] = make(map[int]*partIngest)
	}
	pi := n.ingests[dataset][part]
	if pi == nil {
		pi = &partIngest{}
		n.ingests[dataset][part] = pi
	}
	return pi
}

// datasetGen reads one local dataset's cache generation.
func (n *Node) datasetGen(local string) uint64 {
	for _, ds := range n.eng.Datasets() {
		if ds.Name == local {
			return ds.Gen
		}
	}
	return 0
}

// AppendRows lands one routed delta batch in the node's engine — the
// cluster twin of Engine.Append*: rows enter the delta-segment path
// (tuples at the batch's explicit global base so result IDs match a
// single-node build) and the dataset's generation advances,
// invalidating stale cache entries. dup reports an idempotent no-op:
// the batch's sequence number was already applied. The append is
// synchronous under the partition's lock, so the cursor and the
// engine's rows always agree: a nil error means both moved, and any
// error means neither did. ctx is consulted once, before the batch
// applies; a caller already cancelled by then gets ctx.Err().
func (n *Node) AppendRows(ctx context.Context, b AppendBatch) (dup bool, gen uint64, err error) {
	n.mu.Lock()
	entry, ok := n.parts[b.Dataset][b.Part]
	n.mu.Unlock()
	if !ok {
		return false, 0, fmt.Errorf("%w: %q part %d not on this node",
			core.ErrUnknownDataset, b.Dataset, b.Part)
	}

	pi := n.partIngest(b.Dataset, b.Part)
	pi.mu.Lock()
	defer pi.mu.Unlock()
	switch last := pi.lastSeq.Load(); {
	case b.Seq <= last:
		return true, n.datasetGen(entry.local), nil
	case b.Seq != last+1:
		return false, 0, fmt.Errorf("%w: %q part %d seq %d after %d",
			ErrSeqGap, b.Dataset, b.Part, b.Seq, last)
	}

	if err := ctx.Err(); err != nil {
		return false, 0, err
	}

	if entry.local == "" {
		// First rows to land on an empty partition: register the local
		// dataset from the batch. For tuples the batch's global base
		// becomes the partition's ID offset.
		local := n.localName(b.Dataset, b.Part)
		switch {
		case len(b.Tuples) > 0:
			err = n.eng.AddTuples(local, b.Tuples)
			entry = partEntry{local: local, offset: b.Base}
		case len(b.Series) > 0:
			err = n.eng.AddSeries(local, b.Series)
			entry = partEntry{local: local}
		default:
			err = n.eng.AddWells(local, b.Wells)
			entry = partEntry{local: local}
		}
		if err != nil {
			return false, 0, fmt.Errorf("%w: %w", ErrAppendRefused, err)
		}
		n.mu.Lock()
		n.parts[b.Dataset][b.Part] = entry
		n.mu.Unlock()
	} else {
		switch {
		case len(b.Tuples) > 0:
			localBase := b.Base - entry.offset
			if localBase < 0 {
				return false, 0, fmt.Errorf("%w: append base %d below partition offset %d",
					ErrAppendRefused, b.Base, entry.offset)
			}
			err = n.eng.AppendTuplesAt(entry.local, localBase, b.Tuples)
		case len(b.Series) > 0:
			err = n.eng.AppendSeries(entry.local, b.Series)
		default:
			err = n.eng.AppendWells(entry.local, b.Wells)
		}
		if err != nil {
			return false, 0, fmt.Errorf("%w: %w", ErrAppendRefused, err)
		}
	}
	pi.lastSeq.Store(b.Seq)
	n.appended.Add(1)
	return false, n.datasetGen(entry.local), nil
}

// dataKindOfInfo maps an engine manifest kind tag to the cluster's
// DataKind (0 for an unknown tag).
func dataKindOfInfo(kind string) DataKind {
	for k := KindTuples; k <= KindScene; k++ {
		if k.String() == kind {
			return k
		}
	}
	return 0
}

// seqState reports every partition's record (the 'U' reply). dataset
// filters to one dataset; "" reports all. Scene partitions are omitted:
// scenes are not appendable. Each entry carries the dataset's kind and
// tuple width when any of its partitions here holds rows (0 otherwise),
// so a restarted router can rediscover datasets and check appends.
func (n *Node) seqState(dataset string) []SeqEntry {
	infos := make(map[string]core.DatasetInfo)
	for _, ds := range n.eng.Datasets() {
		infos[ds.Name] = ds
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []SeqEntry
	for ds, parts := range n.parts {
		if dataset != "" && ds != dataset {
			continue
		}
		// The dataset's kind and width are knowable iff some partition
		// here is non-empty; empty partitions report them too once found.
		var kind DataKind
		var width int
		for _, entry := range parts {
			if entry.local == "" {
				continue
			}
			if info, ok := infos[entry.local]; ok {
				kind, width = dataKindOfInfo(info.Kind), info.Width
				break
			}
		}
		if kind == KindScene {
			continue
		}
		for part, entry := range parts {
			e := SeqEntry{Dataset: ds, Part: part, Watermark: entry.offset, Offset: entry.offset, Kind: kind, Width: width}
			if pi := n.ingests[ds][part]; pi != nil {
				e.LastSeq = pi.lastSeq.Load()
			}
			if entry.local != "" {
				info, ok := infos[entry.local]
				if !ok {
					continue
				}
				e.Watermark += int64(info.Rows)
			}
			out = append(out, e)
		}
	}
	return out
}

// appendErrorCode maps an append failure to its wire code.
func appendErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrSeqGap):
		return "seq-gap"
	case errors.Is(err, ErrAppendRefused):
		return "refused"
	case errors.Is(err, core.ErrUnknownDataset):
		return "unknown-dataset"
	default:
		return "append"
	}
}

// serveIngest answers one 'H', 'U' or 'A' request with its terminal frame.
func (n *Node) serveIngest(typ byte, payload []byte) (byte, []byte) {
	switch typ {
	case frameHealth:
		return frameHealth, nil
	case frameSeqState:
		ds, err := decodeSeqStateReq(payload)
		if err != nil {
			n.failed.Add(1)
			return frameError, encodeError("bad-seq-state", err.Error())
		}
		return frameSeqState, encodeSeqState(n.seqState(ds))
	}
	b, err := decodeAppend(payload)
	if err != nil {
		n.failed.Add(1)
		return frameError, encodeError("bad-append", err.Error())
	}
	// The fault-injection hook runs with the batch decoded but nothing
	// applied or acked: a kill here severs the connection before the ack
	// can be written, so the router cannot know whether it applied.
	if n.opt.BeforeAppend != nil {
		n.opt.BeforeAppend(b.Dataset, b.Part, b.Seq)
	}
	dup, gen, err := n.AppendRows(context.Background(), b)
	if err != nil {
		n.failed.Add(1)
		return frameError, encodeError(appendErrorCode(err), err.Error())
	}
	return frameAppendAck, encodeAppendAck(appendAck{Seq: b.Seq, Dup: dup, Gen: gen})
}
