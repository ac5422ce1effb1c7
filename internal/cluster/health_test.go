// Unit pins for the per-peer health state machine: escalation from
// transport faults, recovery on success, the stickiness of quarantine,
// and the single road out of it.

package cluster

import "testing"

func TestHealthFaultEscalation(t *testing.T) {
	h := newHealthTracker()
	const addr = "peer:1"

	if got := h.state(addr); got != Healthy {
		t.Fatalf("unknown peer = %v, want healthy", got)
	}
	h.fault(addr)
	if got := h.state(addr); got != Suspect {
		t.Fatalf("after 1 fault = %v, want suspect", got)
	}
	if !h.servable(addr) {
		t.Fatal("suspect peer must stay servable")
	}
	h.fault(addr)
	if got := h.state(addr); got != Suspect {
		t.Fatalf("after 2 faults = %v, want suspect", got)
	}
	h.fault(addr)
	if got := h.state(addr); got != Down {
		t.Fatalf("after %d faults = %v, want down", downAfterFaults, got)
	}
	if h.servable(addr) {
		t.Fatal("down peer must be skipped on both paths")
	}
	h.ok(addr)
	if got := h.state(addr); got != Healthy {
		t.Fatalf("after recovery = %v, want healthy", got)
	}

	// The fault counter resets on success: one new fault is Suspect
	// again, not Down.
	h.fault(addr)
	if got := h.state(addr); got != Suspect {
		t.Fatalf("fresh fault after recovery = %v, want suspect", got)
	}
}

func TestHealthQuarantineIsSticky(t *testing.T) {
	h := newHealthTracker()
	const addr = "peer:1"

	for _, from := range []HealthState{Healthy, Suspect, Down} {
		h2 := newHealthTracker()
		switch from {
		case Suspect:
			h2.fault(addr)
		case Down:
			for i := 0; i < downAfterFaults; i++ {
				h2.fault(addr)
			}
		}
		h2.missedAppend(addr)
		if got := h2.state(addr); got != Stale {
			t.Fatalf("missedAppend from %v = %v, want stale", from, got)
		}
	}

	h.missedAppend(addr)
	// Reachability proofs must not clear quarantine...
	h.ok(addr)
	if got := h.state(addr); got != Stale {
		t.Fatalf("ok on stale = %v, want stale (reachability is not consistency)", got)
	}
	h.fault(addr)
	if got := h.state(addr); got != Stale {
		t.Fatalf("fault on stale = %v, want stale", got)
	}
	if h.servable(addr) {
		t.Fatal("stale peer must be excluded from reads and appends")
	}
	// ...only catch-up does, and only at an unmoved quarantine
	// generation: a lift with a gen sampled before another miss is
	// refused (the lost-update race between verify and re-admission).
	staleGen := h.quarantineGen(addr)
	h.missedAppend(addr)
	if h.caughtUp(addr, staleGen) {
		t.Fatal("caughtUp with a stale generation must refuse the lift")
	}
	if got := h.state(addr); got != Stale {
		t.Fatalf("after refused lift = %v, want stale", got)
	}
	if !h.caughtUp(addr, h.quarantineGen(addr)) {
		t.Fatal("caughtUp with the current generation must lift")
	}
	if got := h.state(addr); got != Healthy {
		t.Fatalf("after catch-up = %v, want healthy", got)
	}
}

func TestHealthCaughtUpOnlyLiftsStale(t *testing.T) {
	h := newHealthTracker()
	const addr = "peer:1"
	for i := 0; i < downAfterFaults; i++ {
		h.fault(addr)
	}
	h.caughtUp(addr, h.quarantineGen(addr))
	if got := h.state(addr); got != Down {
		t.Fatalf("caughtUp on down peer = %v, want down (it proved nothing)", got)
	}
}

func TestHealthSnapshotAndStrings(t *testing.T) {
	h := newHealthTracker()
	h.fault("a")
	h.missedAppend("b")
	snap := h.snapshot()
	if snap["a"] != Suspect || snap["b"] != Stale {
		t.Fatalf("snapshot = %v", snap)
	}
	want := map[HealthState]string{Healthy: "healthy", Suspect: "suspect", Down: "down", Stale: "stale", Resyncing: "resyncing"}
	for s, str := range want {
		if s.String() != str {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), str)
		}
	}
}
