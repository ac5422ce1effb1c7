// The router's transport: one long-lived, multiplexed TCP connection per
// topology peer. Every read, append, probe and seq-state exchange is a
// stream on it: the caller writes its frames under the write mutex and
// waits for the one reader goroutine to hand it the terminal frame. The
// connection is dialled on first use and re-dialled by the next caller
// after a break; a break fails every in-flight stream with a transport
// error and feeds the health tracker once. Bulk repair traffic opens
// its own short-lived connection (dialRepair, catchup.go).

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// errRouterClosed fails calls made on, or in flight across, Router.Close.
var errRouterClosed = errors.New("cluster: router closed")

// dial is the router's one way to open a socket.
func (r *Router) dial(ctx context.Context, addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: r.opt.DialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// reply ends a stream: the node's terminal frame, or the transport
// error that broke the connection under it.
type reply struct {
	typ     byte
	payload []byte
	err     error
}

// peerConn is one established connection and its stream table.
type peerConn struct {
	p    *peer
	fc   *fconn
	done chan struct{} // closed when readLoop has exited

	mu sync.Mutex
	// calls holds each in-flight stream's reply channel, of capacity 1:
	// a stream ends once, so the reader never blocks.
	calls map[uint32]chan reply
	next  uint32
	err   error // set once by fail; no stream opens after
}

func (pc *peerConn) open() (uint32, chan reply, error) {
	c := make(chan reply, 1)
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.err != nil {
		return 0, nil, pc.err
	}
	for pc.next++; pc.calls[pc.next] != nil; pc.next++ { // skip IDs still in flight after a wrap
	}
	pc.calls[pc.next] = c
	return pc.next, c, nil
}

// drop ends a stream from the caller's side (cancelled, timed out);
// dispatch discards whatever the node still sends for it.
func (pc *peerConn) drop(stream uint32) {
	pc.mu.Lock()
	delete(pc.calls, stream)
	pc.mu.Unlock()
}

// send writes one frame; a failed write leaves the byte stream unframed,
// so it breaks the connection.
func (pc *peerConn) send(typ byte, stream uint32, payload []byte) error {
	err := pc.fc.send(typ, stream, payload)
	if err != nil {
		pc.fail(err)
	}
	return err
}

// dispatch routes one inbound frame, which ends its stream. A frame for
// a stream already finished or dropped goes nowhere, so a late reply to
// one call can never answer the next.
func (pc *peerConn) dispatch(typ byte, stream uint32, payload []byte) {
	pc.mu.Lock()
	c := pc.calls[stream]
	delete(pc.calls, stream)
	pc.mu.Unlock()
	if c != nil {
		c <- reply{typ: typ, payload: payload}
	}
}

func (pc *peerConn) readLoop() {
	defer close(pc.done)
	for {
		typ, stream, payload, err := readFrame(pc.fc.br)
		if err != nil {
			pc.fail(err)
			return
		}
		pc.dispatch(typ, stream, payload)
	}
}

// fail breaks the connection: close the socket, retire the connection,
// feed the health tracker, then fail every in-flight stream — in that
// order, so a woken caller that retries at once dials afresh and sees
// the fault recorded. The tracker is fed once per break however many
// callers notice it, not once per in-flight call: three concurrent
// reads must not take a peer from Healthy to Down on one hiccup.
func (pc *peerConn) fail(err error) {
	pc.mu.Lock()
	if pc.err != nil {
		pc.mu.Unlock()
		return
	}
	pc.err = err
	calls := pc.calls
	pc.calls = nil
	pc.mu.Unlock()
	pc.fc.c.Close()
	pc.p.pc.CompareAndSwap(pc, nil)
	if err != errRouterClosed {
		pc.p.r.health.fault(pc.p.addr)
	}
	for _, c := range calls {
		c <- reply{err: err}
	}
}

// peer owns the connection to one topology address.
type peer struct {
	r    *Router
	addr string
	pc   atomic.Pointer[peerConn] // nil between a break and the next dial

	mu      sync.Mutex // held across a dial
	closed  bool
	dialled time.Time // when the last dial finished
	dialErr error     // its outcome; nil once a connection was established
	dials   int64     // successful dials, lifetime
}

// conn returns the live connection, dialling if there is none. Callers
// queue on mu behind the one that dials and share its outcome — a dead
// peer costs one dial timeout and one health fault however many calls
// were queued — so a queued caller (and Close) waits out that dial, at
// most DialTimeout, even if its own context ends first.
func (p *peer) conn(ctx context.Context) (*peerConn, error) {
	if pc := p.pc.Load(); pc != nil {
		return pc, nil
	}
	queued := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	switch pc := p.pc.Load(); {
	case p.closed:
		return nil, errRouterClosed
	case pc != nil:
		return pc, nil
	case p.dialErr != nil && p.dialled.After(queued):
		return nil, p.dialErr // the dial this call queued behind
	}
	c, err := p.r.dial(ctx, p.addr)
	if err != nil {
		if ctx.Err() == nil { // else the caller gave up, which says nothing about the peer
			p.dialled, p.dialErr = time.Now(), err
			p.r.health.fault(p.addr)
		}
		return nil, err
	}
	pc := &peerConn{p: p, fc: newFconn(c, p.r.opt.AckTimeout), done: make(chan struct{}), calls: make(map[uint32]chan reply)}
	p.dialled, p.dialErr, p.dials = time.Now(), nil, p.dials+1
	p.pc.Store(pc)
	go pc.readLoop()
	return pc, nil
}

// close severs the connection for good and waits for its reader.
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	pc := p.pc.Load()
	p.mu.Unlock()
	if pc != nil {
		pc.fail(errRouterClosed)
		<-pc.done
	}
}

// roundTrip runs one stream on addr's connection: send the request
// frame, wait for the terminal frame. A cancelled ctx ends a query
// stream with a 'C', written by the waiting caller, so a stream costs
// no goroutine. A positive timeout bounds the wait; its expiry is a
// fault of this call only. transport reports a connection-level
// failure (retry, fail over), not a cancellation.
func (r *Router) roundTrip(ctx context.Context, addr string, typ byte, payload []byte, timeout time.Duration) (_ reply, err error, transport bool) {
	p := r.peers[addr]
	if p == nil {
		return reply{}, fmt.Errorf("cluster: %s is not a topology peer", addr), false
	}
	// A failure is the transport's unless the caller cancelled or the router closed.
	fault := func(err error) bool { return err != nil && ctx.Err() == nil && err != errRouterClosed }
	pc, err := p.conn(ctx)
	if err != nil {
		return reply{}, err, fault(err)
	}
	stream, c, err := pc.open()
	if err == nil {
		err = pc.send(typ, stream, payload)
	}
	if err != nil {
		return reply{}, err, fault(err)
	}
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	select {
	case rep := <-c:
		return rep, rep.err, fault(rep.err)
	case <-ctx.Done():
		pc.drop(stream)
		if typ == frameQuery {
			_ = pc.send(frameCancel, stream, nil) // best effort: a failed write breaks the connection, which cancels too
		}
		return reply{}, ctx.Err(), false
	case <-expire:
		pc.drop(stream)
		r.health.fault(addr)
		return reply{}, fmt.Errorf("cluster: %s: no reply to %q frame within %v", addr, typ, timeout), true
	}
}

// PeerConnStats describes the router's connection to one peer: when the
// live one was established (nil while there is none) and how many were
// established after the first.
type PeerConnStats struct {
	ConnectedSince *time.Time `json:"connected_since,omitempty"`
	Reconnects     int64      `json:"reconnects"`
}

// PeerConns samples every peer's connection state, for /stats.
func (r *Router) PeerConns() map[string]PeerConnStats {
	out := make(map[string]PeerConnStats, len(r.peers))
	for addr, p := range r.peers {
		p.mu.Lock()
		st := PeerConnStats{Reconnects: max(p.dials-1, 0)}
		if since := p.dialled; p.pc.Load() != nil {
			st.ConnectedSince = &since
		}
		p.mu.Unlock()
		out[addr] = st
	}
	return out
}
