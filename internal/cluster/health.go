// Per-peer health tracking for the router: every node address carries
// a small state machine driven by read-path transport faults, append
// ack failures, and periodic health probes.
//
//	          read/probe fault        repeated faults
//	Healthy ──────────────────▶ Suspect ─────────────▶ Down
//	   ▲  ▲                       │  ▲                  │
//	   │  └───── read/probe ok ───┘  └── probe fault ───┘
//	   │                probe ok │
//	   │                         ▼
//	   ├──── catch-up done ──── Stale ◀── missed/failed append (any state)
//	   │                         │
//	   │                         │ missed batches pruned from the log
//	   │                         ▼
//	   └──── resync + replay ── Resyncing
//
// Healthy and Suspect replicas serve reads and receive appends. Down
// replicas are skipped on both paths until a probe reaches them again.
// Stale is the quarantine state: the replica missed at least one
// append, so serving a read from it could return a wrong (partial)
// answer — it is excluded from read failover and from append fan-out
// (it would only see sequence gaps) until the catch-up exchange
// (catchup.go) replays its missed batches. Resyncing is the deeper
// quarantine: some missed batches outlived the router's append log, so
// log replay alone cannot repair it and a snapshot transfer from a
// healthy donor (resync.go) is in flight or pending. Both quarantine
// states win over every reachability transition — a probe reaching a
// quarantined replica proves liveness, not consistency — and both are
// lifted only by caughtUp, which additionally checks the peer's
// quarantine generation: if the replica missed another batch after the
// verification pass started, the lift is refused and the next
// reconcile pass closes the new gap.

package cluster

import (
	"sync"
	"time"
)

// HealthState is one peer's position in the router's health machine.
type HealthState int

const (
	// Healthy peers serve reads and receive appends.
	Healthy HealthState = iota
	// Suspect peers faulted recently but still serve; repeated faults
	// demote them to Down.
	Suspect
	// Down peers are unreachable: skipped on reads and appends until a
	// probe succeeds. A Down peer that misses an append becomes Stale.
	Down
	// Stale peers missed an append and are quarantined from reads and
	// appends until catch-up replays their missed batches.
	Stale
	// Resyncing peers missed batches that were pruned from the append
	// log: log replay cannot repair them, so a snapshot resync from a
	// healthy donor is pending or in flight. Quarantined like Stale.
	Resyncing
)

func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Stale:
		return "stale"
	case Resyncing:
		return "resyncing"
	default:
		return "unknown"
	}
}

// downAfterFaults demotes Suspect to Down at this many consecutive
// transport faults (the first fault makes the peer Suspect).
const downAfterFaults = 3

type peerHealth struct {
	state   HealthState
	faults  int // consecutive transport faults since the last success
	changed time.Time
	// gen counts missed appends: catch-up snapshots it before a
	// verification pass and refuses to lift quarantine if it moved —
	// a batch that lands between "partition verified current" and
	// "peer re-admitted" must keep the peer quarantined.
	gen uint64
	// note is the last catch-up or resync error, for /stats — a
	// permanently stuck replica is visible, not silent. Cleared when
	// the peer is re-admitted.
	note string
}

// healthTracker is the router's per-peer state table. Unknown peers
// are Healthy: the tracker records evidence of trouble, not evidence
// of health, so a fresh router serves from everyone.
type healthTracker struct {
	mu    sync.Mutex
	peers map[string]*peerHealth
}

func newHealthTracker() *healthTracker {
	return &healthTracker{peers: make(map[string]*peerHealth)}
}

func (h *healthTracker) peer(addr string) *peerHealth {
	p, ok := h.peers[addr]
	if !ok {
		p = &peerHealth{state: Healthy}
		h.peers[addr] = p
	}
	return p
}

// state reports addr's current state.
func (h *healthTracker) state(addr string) HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peer(addr).state
}

// servable reports whether reads may be served from addr, and whether
// it receives append fan-out. Stale, Resyncing, and Down peers are
// excluded: the quarantined states could answer wrong (and would see
// sequence gaps), Down would only burn a dial timeout.
func (h *healthTracker) servable(addr string) bool {
	s := h.state(addr)
	return s == Healthy || s == Suspect
}

func (p *peerHealth) set(s HealthState) {
	if p.state != s {
		p.state = s
		p.changed = time.Now()
	}
}

// fault records a transport-level failure on the read or probe path:
// Healthy demotes to Suspect, and downAfterFaults consecutive faults
// demote Suspect to Down. Quarantine is sticky — only catch-up clears
// it.
func (h *healthTracker) fault(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(addr)
	p.faults++
	switch p.state {
	case Healthy:
		p.set(Suspect)
	case Suspect:
		if p.faults >= downAfterFaults {
			p.set(Down)
		}
	}
}

// ok records a successful read or probe: Suspect and Down recover to
// Healthy, quarantined peers stay quarantined (reachability is not
// consistency).
func (h *healthTracker) ok(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(addr)
	p.faults = 0
	if p.state == Suspect || p.state == Down {
		p.set(Healthy)
	}
}

// missedAppend quarantines addr: it failed an append ack after
// retries, or the fan-out skipped it while unreachable — either way it
// is now missing at least one batch and must not serve reads. The
// quarantine generation advances so a catch-up pass racing this miss
// cannot lift the quarantine. A peer already in Resyncing stays there
// (resync ends with a log replay that covers batches missed meanwhile).
func (h *healthTracker) missedAppend(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(addr)
	p.gen++
	if p.state != Resyncing {
		p.set(Stale)
	}
}

// startResync escalates addr's quarantine: its missed batches outlived
// the append log, so only a snapshot transfer can repair it.
func (h *healthTracker) startResync(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peer(addr).set(Resyncing)
}

// quarantineGen reads addr's missed-append counter; pair with caughtUp
// to make the quarantine lift race-free.
func (h *healthTracker) quarantineGen(addr string) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.peer(addr).gen
}

// caughtUp re-admits addr after a catch-up pass verified every owned
// partition current, provided no further append was missed since gen
// was sampled. It reports whether addr is (now) out of quarantine; a
// false return means another batch landed mid-verification and the
// caller should re-verify.
func (h *healthTracker) caughtUp(addr string, gen uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peer(addr)
	if p.state != Stale && p.state != Resyncing {
		return true
	}
	if p.gen != gen {
		return false
	}
	p.faults = 0
	p.note = ""
	p.set(Healthy)
	return true
}

// noteErr records addr's last catch-up/resync error for /stats.
func (h *healthTracker) noteErr(addr string, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.peer(addr).note = err.Error()
}

// snapshot reports every tracked peer's state, for /stats.
func (h *healthTracker) snapshot() map[string]HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]HealthState, len(h.peers))
	for addr, p := range h.peers {
		out[addr] = p.state
	}
	return out
}

// notes reports every peer's last recorded catch-up/resync error
// (peers with none are omitted), for /stats.
func (h *healthTracker) notes() map[string]string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]string)
	for addr, p := range h.peers {
		if p.note != "" {
			out[addr] = p.note
		}
	}
	return out
}
