// Package fsm implements the paper's finite state models (Section 2.2):
// deterministic finite automata over multi-modal event alphabets, the
// fire-ants machine of Fig. 1, run semantics over daily observation
// series, a behavioral distance between machines ("when the finite state
// machine extracted from the data is slightly different from the target
// finite state machine, it is also possible to define a distance between
// these two finite state machines"), and empirical machine extraction
// from observed data.
package fsm

import (
	"errors"
	"fmt"
)

// Event is a symbol index into a machine's alphabet.
type Event int

// Machine is a complete deterministic finite automaton: every state has a
// transition for every event. Build one with NewBuilder.
type Machine struct {
	states   []string
	alphabet []string
	accept   []bool
	start    int
	// trans[s*|alphabet| + e] = next state
	trans []int
}

// Builder accumulates a machine definition and validates it on Build.
type Builder struct {
	alphabet []string
	states   []string
	accept   map[int]bool
	start    int
	hasStart bool
	trans    map[[2]int]int
}

// NewBuilder starts a machine over the given event alphabet.
func NewBuilder(alphabet []string) *Builder {
	a := make([]string, len(alphabet))
	copy(a, alphabet)
	return &Builder{
		alphabet: a,
		accept:   make(map[int]bool),
		trans:    make(map[[2]int]int),
	}
}

// State adds a named state and returns its index.
func (b *Builder) State(name string) int {
	b.states = append(b.states, name)
	return len(b.states) - 1
}

// Accept marks a state as accepting.
func (b *Builder) Accept(state int) *Builder {
	b.accept[state] = true
	return b
}

// Start sets the initial state.
func (b *Builder) Start(state int) *Builder {
	b.start = state
	b.hasStart = true
	return b
}

// On sets the transition from state `from` on event e to state `to`.
func (b *Builder) On(from int, e Event, to int) *Builder {
	b.trans[[2]int{from, int(e)}] = to
	return b
}

// Build validates completeness and returns the machine.
func (b *Builder) Build() (*Machine, error) {
	if len(b.alphabet) == 0 {
		return nil, errors.New("fsm: empty alphabet")
	}
	if len(b.states) == 0 {
		return nil, errors.New("fsm: no states")
	}
	if !b.hasStart {
		return nil, errors.New("fsm: no start state")
	}
	if b.start < 0 || b.start >= len(b.states) {
		return nil, fmt.Errorf("fsm: start state %d out of range", b.start)
	}
	m := &Machine{
		states:   append([]string(nil), b.states...),
		alphabet: append([]string(nil), b.alphabet...),
		accept:   make([]bool, len(b.states)),
		start:    b.start,
		trans:    make([]int, len(b.states)*len(b.alphabet)),
	}
	for s := range b.states {
		m.accept[s] = b.accept[s]
		for e := range b.alphabet {
			to, ok := b.trans[[2]int{s, e}]
			if !ok {
				return nil, fmt.Errorf("fsm: state %q missing transition on %q",
					b.states[s], b.alphabet[e])
			}
			if to < 0 || to >= len(b.states) {
				return nil, fmt.Errorf("fsm: transition %q --%q--> %d out of range",
					b.states[s], b.alphabet[e], to)
			}
			m.trans[s*len(b.alphabet)+e] = to
		}
	}
	return m, nil
}

// NumStates returns the state count.
func (m *Machine) NumStates() int { return len(m.states) }

// NumEvents returns the alphabet size.
func (m *Machine) NumEvents() int { return len(m.alphabet) }

// RunResult summarizes a machine run over an event series.
type RunResult struct {
	// FirstAccept is the 0-based index of the first event after which the
	// machine was in an accepting state, or -1 if never.
	FirstAccept int
	// AcceptCount is how many event positions left the machine accepting.
	AcceptCount int
	// Final is the state after the last event.
	Final int
}

// Run feeds the event series through the machine from its start state.
func (m *Machine) Run(events []Event) (RunResult, error) {
	res := RunResult{FirstAccept: -1, Final: m.start}
	s := m.start
	na := len(m.alphabet)
	for i, e := range events {
		if int(e) < 0 || int(e) >= na {
			return res, fmt.Errorf("fsm: event %d at position %d out of range", e, i)
		}
		s = m.trans[s*na+int(e)]
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
