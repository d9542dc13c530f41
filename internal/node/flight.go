package node

import (
	"errors"
	"strconv"

	"repro/internal/flight"
)

// EnableFlight attaches a flight observer to the node's failure
// triggers: an unrecoverable transport loss on a resumable session
// (the pump surfacing *PeerLostError) records the loss and trips the
// recorder, and the node's metrics registry / timeline recorder (when
// wired) are attached so post-mortems are self-contained. Idempotent
// per node; with flight never enabled the error paths pay one nil
// check.
func (n *Node) EnableFlight(o *flight.Observer) {
	if !o.Enabled() {
		return
	}
	n.mu.Lock()
	if n.flightObs != nil {
		n.mu.Unlock()
		return
	}
	n.flightObs = o
	reg, rec := n.metricsReg, n.tlRec
	n.mu.Unlock()

	o.Rec.SetInfo("node", n.name)
	if reg != nil {
		o.Rec.AttachRegistry(reg)
	}
	if rec != nil {
		o.Rec.AttachTimeline(rec)
	}
}

// flightObserver returns the attached observer (nil-safe to use).
func (n *Node) flightObserver() *flight.Observer {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.flightObs
}

// ConnErr returns the first error that ended one of the node's
// channel connections other than by the node's own Close — a
// *PeerLostError when the peer vanished — or nil.
func (n *Node) ConnErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connErr
}

// notePeerLost keeps a pump/serve error for ConnErr and, when it is a
// *PeerLostError (a resumable session exhausting its transport for
// good), records the transition and trips the flight recorder. Any
// other connection error is recorded as a transition but does not
// freeze the ring.
func (n *Node) notePeerLost(err error) {
	n.mu.Lock()
	if n.connErr == nil {
		n.connErr = err
	}
	n.mu.Unlock()
	o := n.flightObserver()
	if !o.Enabled() {
		return
	}
	var lost *PeerLostError
	if errors.As(err, &lost) {
		o.Event("peer", lost.Peer, "peer lost: "+err.Error(), int64(lost.LastSeq))
		o.Trip("peer-lost", lost.Peer+" last_seq="+strconv.FormatUint(lost.LastSeq, 10))
		return
	}
	o.Event("conn", n.name, err.Error(), 0)
}
