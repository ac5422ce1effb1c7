// Event-plane codec for the snapshot subsystem: an event trace is a
// plain symbol sequence, so it serializes as one int64 column per
// archive; restore packs the column back (PackColumn). Kept here (rather
// than in internal/segment) so the segment layer never learns fsm's
// types.

package fsm

// EncodeEvents widens an event trace to the int64 column layout the
// snapshot writer stores.
func EncodeEvents(evs []Event) []int64 {
	out := make([]int64, len(evs))
	for i, e := range evs {
		out[i] = int64(e)
	}
	return out
}
