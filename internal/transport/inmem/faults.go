package inmem

import (
	"fmt"
	"time"

	"openwf/internal/proto"
)

// Fault injection: the chaos side of the simulated medium. A crashed host
// goes dark — frames to it drop, frames from it fail, and anything queued
// for it is purged — until Restart clears the flag. What a crash does NOT
// do is preserve state: restoring schedule, bid, and execution state is
// the community layer's concern (it has none to restore; that is the
// point). Partitions and per-link loss stay available alongside, so a
// fault schedule can mix all three against the virtual clock.

// Crash marks a host dark. In-flight frames to it (its inbox, its delay
// lines) are dropped, as is everything sent to or from it until Restart.
// Crashing an unknown or already-crashed host is a no-op.
func (n *Network) Crash(addr proto.Addr) {
	n.mu.Lock()
	if n.crashed == nil {
		n.crashed = make(map[proto.Addr]bool)
		n.crashEpoch = make(map[proto.Addr]uint64)
	}
	n.crashed[addr] = true
	n.crashEpoch[addr]++
	// Mark the inbox dark and purge it: messages queued but not yet
	// handled are lost with the host, and a send that routed to this inbox
	// just before the crash is refused by the mailbox itself (push and
	// purge serialize on its lock). Frames still waiting in link delay
	// lines drop at delivery time (link.pump re-checks the crash state).
	var purged []delivery
	if ep := n.endpoints[addr]; ep != nil {
		purged = ep.box.setDark(true)
	}
	n.mu.Unlock()
	for _, d := range purged {
		n.lost(d)
	}
}

// Restart brings a crashed host back. The endpoint keeps its address and
// handler; no lost frames are replayed (a crash is loss, not a
// partition), but store-and-forward traffic buffered for partition
// reasons flushes again once the host is both reachable and alive.
func (n *Network) Restart(addr proto.Addr) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, addr)
	if ep := n.endpoints[addr]; ep != nil {
		// Lift the inbox's dark flag before flushing stored traffic, or
		// the flush would bounce off the mailbox's own crash guard.
		ep.box.setDark(false)
	}
	n.flushStoredLocked()
}

// Crashed reports whether a host is currently dark.
func (n *Network) Crashed(addr proto.Addr) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[addr]
}

// SetLinkLoss sets a uniform loss probability for one directed link,
// layered on top of the LinkModel (either may drop). Loss applies at
// frame granularity: a dropped EnvelopeBatch loses every member envelope
// and never delivers partially. p ≤ 0 removes the override. Draws come
// from the link's own deterministically seeded random source.
func (n *Network) SetLinkLoss(from, to proto.Addr, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.linkLocked(linkKey{from, to}).loss = max(p, 0)
}

// FaultKind names one scripted fault.
type FaultKind string

// The fault schedule vocabulary.
const (
	// FaultCrash kills Host (Network.Crash).
	FaultCrash FaultKind = "crash"
	// FaultRestart revives Host (Network.Restart).
	FaultRestart FaultKind = "restart"
	// FaultPartition splits the community into Groups (SetPartition).
	FaultPartition FaultKind = "partition"
	// FaultHeal removes the partition (SetPartition with no groups).
	FaultHeal FaultKind = "heal"
	// FaultLinkLoss sets loss probability Loss on the From→To link.
	FaultLinkLoss FaultKind = "link-loss"
)

// Fault is one scripted event of a fault schedule, fired At (an offset
// from the ScheduleFaults call) on the network's clock.
type Fault struct {
	At   time.Duration
	Kind FaultKind
	// Host is the target of a crash or restart.
	Host proto.Addr
	// Groups are the partition groups of a FaultPartition.
	Groups [][]proto.Addr
	// From, To, Loss parameterize a FaultLinkLoss.
	From, To proto.Addr
	Loss     float64
}

// ScheduleFaults arms a timed fault schedule against the network's clock
// (with a Sim clock, faults fire as the test advances virtual time). Each
// fault is applied and then reported to notify, if non-nil — the
// community layer uses the callback to wipe a crashed host's protocol
// state, completing the "restart loses everything" semantics the
// transport alone cannot provide. Callbacks run on the clock's timer
// goroutine and must not block on further clock advances.
func (n *Network) ScheduleFaults(faults []Fault, notify func(Fault)) {
	for _, f := range faults {
		f := f
		n.clock.AfterFunc(f.At, func() {
			n.applyFault(f)
			if notify != nil {
				notify(f)
			}
		})
	}
}

// applyFault executes one scripted fault.
func (n *Network) applyFault(f Fault) {
	switch f.Kind {
	case FaultCrash:
		n.Crash(f.Host)
	case FaultRestart:
		n.Restart(f.Host)
	case FaultPartition:
		n.SetPartition(f.Groups...)
	case FaultHeal:
		n.SetPartition()
	case FaultLinkLoss:
		n.SetLinkLoss(f.From, f.To, f.Loss)
	default:
		panic(fmt.Sprintf("inmem: unknown fault kind %q", f.Kind))
	}
}
