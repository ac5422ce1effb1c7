// Packed event runs and the compiled step table. A day-classified
// event series holds three symbols (EvRain, EvDryHot, EvDryCold), so the
// engine stores it base 3, five days per byte (3^5 = 243 codes): day k
// of a byte is its k-th least significant base-3 digit, and the last
// byte of a run of n days holds its n%5 tail days. A machine is
// compiled once per request into a Table with one entry per (state,
// code), so a scan reads one byte and one entry per five days. Every
// result — run counts, fly scores, extracted machines, and the text and
// position of an out-of-alphabet error — is identical to Machine.Run,
// FlyScore and Extract over the unpacked events.

package fsm

import (
	"fmt"
	"math"

	"modelir/internal/synth"
)

const (
	// packDays is how many events one packed byte holds.
	packDays = 5
	// packCodes is the number of distinct packed bytes, 3^packDays.
	packCodes = 243
)

// decode[c][k] is event k of packed code c.
var decode = func() (d [packCodes][packDays]uint8) {
	for c := range d {
		v := c
		for k := range d[c] {
			d[c][k] = uint8(v % 3)
			v /= 3
		}
	}
	return d
}()

// PackedLen is the byte length of a packed run of n events.
func PackedLen(n int) int { return (n + packDays - 1) / packDays }

// pack appends the n events sym(0..n-1), each one of the three packed
// symbols, five per byte.
func pack(dst []byte, n int, sym func(i int) Event) []byte {
	for lo := 0; lo < n; lo += packDays {
		var code, mul byte = 0, 1
		for i := lo; i < min(lo+packDays, n); i++ {
			code += byte(sym(i)) * mul
			mul *= 3
		}
		dst = append(dst, code)
	}
	return dst
}

// AppendPackedSeries appends ClassifySeries(days) in packed form without
// materialising the event slice.
func AppendPackedSeries(dst []byte, days []synth.DayWeather) []byte {
	return pack(dst, len(days), func(i int) Event { return ClassifyDay(days[i]) })
}

// CheckPacked refuses p unless it is a well-formed packed run of n
// events, as a snapshot restore must before adopting it: PackedLen(n)
// bytes, each a code below 243, with no digit set past the n%5 tail
// days of the last byte.
func CheckPacked(p []byte, n int) error {
	if len(p) != PackedLen(n) {
		return fmt.Errorf("fsm: %d packed bytes for %d events", len(p), n)
	}
	for i, c := range p {
		if c >= packCodes {
			return fmt.Errorf("fsm: packed byte %d holds code %d, past %d", i, c, packCodes-1)
		}
	}
	if tail := n % packDays; tail > 0 {
		if c, limit := p[len(p)-1], pow3[tail]; int(c) >= limit {
			return fmt.Errorf("fsm: last packed byte %d holds digits past its %d tail days", c, tail)
		}
	}
	return nil
}

// pow3[k] is 3^k.
var pow3 = [packDays + 1]int{1, 3, 9, 27, 81, 243}

// AppendUnpacked appends the n events of packed run p.
func AppendUnpacked(dst []Event, p []byte, n int) []Event {
	for i := 0; i < n; i++ {
		dst = append(dst, Event(decode[p[i/packDays]][i%packDays]))
	}
	return dst
}

// Table is a machine prepared for packed runs. When compiled it holds
// one entry per (state, code), the five-day step from that state over
// that code; otherwise every run steps day by day through the decode
// table. Both give the same results. A Table is read-only once built,
// so one request's units may share it.
//
// An entry is stored as two parallel planes: steps, the 8 bytes a
// scoring scan reads per byte, and idx, the count indices only
// extraction reads. Entry k = s*243+c is steps[k] and idx[k]; both are
// nil when the table is not compiled, and idx is nil in a scoring
// table (NewTable).
type Table struct {
	m     *Machine
	steps []step
	// idx[k] are the extraction count indices (s·ne+e)·ns+to of entry
	// k's five transitions.
	idx [][packDays]int32
}

// step is the scoring half of a table entry.
type step struct {
	// next is the entry row of the state after the five days
	// (243·state), or -1 for a code holding an event outside the
	// machine's alphabet; such a byte is stepped day by day to its
	// error.
	next  int32
	acc   int8 // days that left the machine accepting
	first int8 // offset of the first such day, -1 if none
}

// NewTable prepares m for scoring packedBytes bytes of packed runs
// (FlyScore). The step table costs |S|·243·5 steps to build, so it is
// compiled only when |S|·243 is at most packedBytes: building it never
// costs more than the scan it serves. Its Extract steps day by day.
func NewTable(m *Machine, packedBytes int) *Table { return newTable(m, packedBytes, false) }

// NewExtractTable is NewTable for extraction: a compiled table also
// holds the count indices Extract reads per byte. (They must fit an
// int32, which any machine small enough to extract from does.)
func NewExtractTable(m *Machine, packedBytes int) *Table { return newTable(m, packedBytes, true) }

func newTable(m *Machine, packedBytes int, extract bool) *Table {
	t := &Table{m: m}
	ns, ne := m.NumStates(), m.NumEvents()
	if ns*packCodes > packedBytes || (extract && ns*ne*ns > math.MaxInt32) {
		return t
	}
	t.steps = make([]step, ns*packCodes)
	if extract {
		t.idx = make([][packDays]int32, ns*packCodes)
	}
	for s := 0; s < ns; s++ {
		for c := 0; c < packCodes; c++ {
			k := s*packCodes + c
			st, cur := step{first: -1}, s
			for d, e := range decode[c] {
				if int(e) >= ne {
					cur = -1
					break
				}
				to := m.trans[cur*ne+int(e)]
				if extract {
					t.idx[k][d] = int32((cur*ne+int(e))*ns + to)
				}
				cur = to
				if m.accept[cur] {
					if st.first < 0 {
						st.first = int8(d)
					}
					st.acc++
				}
			}
			st.next = -1
			if cur >= 0 {
				st.next = int32(cur * packCodes)
			}
			t.steps[k] = st
		}
	}
	return t
}

// eventAt decodes day i of packed run p.
func eventAt(p []byte, i int) int { return int(decode[p[i/packDays]][i%packDays]) }

// run is Machine.Run over the n events of packed run p.
func (t *Table) run(p []byte, n int) (RunResult, error) {
	m := t.m
	ne := len(m.alphabet)
	res := RunResult{FirstAccept: -1, Final: m.start}
	s, i := m.start, 0
	if t.steps != nil {
		row, b := s*packCodes, 0
		full := p[:n/packDays]
		// Up to the first accepting day, then counting only.
		for ; b < len(full); b++ {
			st := t.steps[row+int(full[b])]
			if st.next < 0 || st.first >= 0 {
				break
			}
			row = int(st.next)
		}
		if b < len(full) {
			if st := t.steps[row+int(full[b])]; st.next >= 0 {
				res.FirstAccept = b*packDays + int(st.first)
			}
		}
		for ; b < len(full); b++ {
			st := t.steps[row+int(full[b])]
			if st.next < 0 {
				break
			}
			res.AcceptCount += int(st.acc)
			row = int(st.next)
		}
		s, i = row/packCodes, b*packDays
	}
	// Day by day: the tail, a bad code, or an uncompiled table.
	for ; i < n; i++ {
		e := eventAt(p, i)
		if e >= ne {
			return res, fmt.Errorf("fsm: event %d at position %d out of range", e, i)
		}
		s = m.trans[s*ne+e]
		if m.accept[s] {
			if res.FirstAccept < 0 {
				res.FirstAccept = i
			}
			res.AcceptCount++
		}
	}
	res.Final = s
	return res, nil
}

// FlyScore is FlyScore over the n events of packed run p.
func (t *Table) FlyScore(p []byte, n int) (float64, error) {
	res, err := t.run(p, n)
	if err != nil {
		return 0, err
	}
	return flyScore(res, n), nil
}

// Extract is Extract(ref, [][]Event{events}) for the table's machine as
// the reference and the n events of packed run p, reusing sc's buffers.
// The returned machine is owned by the scratch and valid only until the
// next extraction on it; its state labels, alphabet and accepting set
// alias the reference.
func (t *Table) Extract(p []byte, n int, sc *Scratch) (*Machine, error) {
	ref := t.m
	ns, ne := ref.NumStates(), ref.NumEvents()
	counts := sc.ints(ns * ne * ns)
	s, i := ref.start, 0
	if t.idx != nil {
		row := s * packCodes
		for _, c := range p[:n/packDays] {
			k := row + int(c)
			st := t.steps[k]
			if st.next < 0 {
				break
			}
			for _, x := range &t.idx[k] {
				counts[x]++
			}
			row = int(st.next)
			i += packDays
		}
		s = row / packCodes
	}
	for ; i < n; i++ {
		e := eventAt(p, i)
		if e >= ne {
			return nil, fmt.Errorf("fsm: event %d at position %d out of range", e, i)
		}
		to := ref.trans[s*ne+e]
		counts[(s*ne+e)*ns+to]++
		s = to
	}
	return sc.majority(ref, counts), nil
}
