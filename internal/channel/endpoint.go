package channel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/timeline"
	"repro/internal/vtime"
)

// Policy selects how a channel trades parallelism against restores.
type Policy uint8

const (
	// Conservative channels never let the subsystem advance past the
	// peer's granted safe time.
	Conservative Policy = iota
	// Optimistic channels let the subsystem run ahead; a straggler
	// message triggers a rollback to a checkpoint.
	Optimistic
)

func (p Policy) String() string {
	if p == Optimistic {
		return "optimistic"
	}
	return "conservative"
}

// Stats counts endpoint activity.
type Stats struct {
	DataOut, DataIn     int64
	BytesOut, BytesIn   int64
	AsksOut, AsksIn     int64
	GrantsOut, GrantsIn int64
	Stragglers          int64
	SeqErrors           int64
	Flushes             int64 // non-empty egress flushes
	FlushedMsgs         int64 // messages carried by those flushes
}

// CoalesceConfig tunes egress message coalescing. Data drives
// accumulate in the endpoint's egress queue until one of the budgets
// trips; urgent messages (safe-time asks and grants, marks, restores,
// close) always flush immediately, with any queued drives preceding
// them in the same batch so FIFO order is preserved.
type CoalesceConfig struct {
	// MaxMsgs flushes once this many messages are queued. Values
	// below 2 disable coalescing.
	MaxMsgs int
	// MaxBytes flushes once the queued payload bytes (signal sizes,
	// not wire encoding) reach this budget. 0 means no byte budget.
	MaxBytes int
	// MaxHold bounds the virtual-time span a queued drive may wait
	// behind the first queued drive. 0 means unbounded — safe because
	// timestamps are stamped at egress and every scheduler stall
	// flushes, so holding affects wall-clock delivery only.
	MaxHold vtime.Duration
}

// Enabled reports whether the config actually coalesces.
func (c CoalesceConfig) Enabled() bool { return c.MaxMsgs > 1 }

// DefaultCoalesce is a balanced policy: big enough batches to
// amortize framing, small enough to keep wall-clock latency low.
var DefaultCoalesce = CoalesceConfig{MaxMsgs: 64, MaxBytes: 32 << 10}

// Hub manages all channel endpoints of one subsystem. It chains into
// the subsystem's publish hook so grants are computed and pushed on
// the scheduler goroutine, after injected messages have been routed —
// which is what makes the published next-event key an honest bound.
type Hub struct {
	sub *core.Subsystem

	mu  sync.Mutex
	eps []*Endpoint

	closed    bool
	metricsOn bool // EnableMetrics already wired a collector

	// tl, when non-nil, receives protocol timeline events from every
	// endpoint (see EnableTimeline). Nil costs one pointer check per
	// protocol action; the data hot path stays untouched.
	tl *timeline.Recorder
}

// NewHub creates the hub and installs its publish hook.
func NewHub(sub *core.Subsystem) *Hub {
	h := &Hub{sub: sub}
	prev := sub.OnPublish
	sub.OnPublish = func(now, key vtime.Time) {
		if prev != nil {
			prev(now, key)
		}
		h.publish(key)
	}
	prevDepart := sub.OnDepart
	sub.OnDepart = func(until vtime.Time) {
		if prevDepart != nil {
			prevDepart(until)
		}
		h.depart(until)
	}
	prevStall := sub.OnStall
	sub.OnStall = func() {
		if prevStall != nil {
			prevStall()
		}
		h.flushAll()
	}
	return h
}

// flushAll drains every endpoint's egress queue. Chained into the
// subsystem's stall hook: whenever the scheduler is about to block,
// anything still coalescing goes on the wire — the peer may be
// waiting on exactly those drives, and nothing further will top up
// the batch while we sleep.
func (h *Hub) flushAll() {
	h.mu.Lock()
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	for _, ep := range eps {
		ep.Flush()
	}
}

// EnableTimeline attaches the timeline recorder to the hub: every
// endpoint (existing and future) records its committed data
// send/delivery pairs plus the transient ask/grant/straggler protocol
// chatter. Disabled (the default) the endpoints pay a nil check per
// protocol action and nothing on the byte path.
func (h *Hub) EnableTimeline(rec *timeline.Recorder) {
	if rec == nil {
		return
	}
	h.mu.Lock()
	h.tl = rec
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	for _, ep := range eps {
		ep.setTimeline(rec)
	}
}

func (ep *Endpoint) setTimeline(rec *timeline.Recorder) {
	ep.mu.Lock()
	ep.tl = rec
	ep.mu.Unlock()
}

// SetCoalescing applies cfg to every endpoint of the hub.
func (h *Hub) SetCoalescing(cfg CoalesceConfig) {
	h.mu.Lock()
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	for _, ep := range eps {
		ep.SetCoalescing(cfg)
	}
}

// depart pushes a final grant covering the horizon to every
// conservative peer when this subsystem leaves a finite-horizon run.
// Sound because the subsystem will not simulate at or below the
// horizon again: its future sends (in later runs) happen at times
// strictly beyond it, and reactions it might have to the peer's own
// in-flight messages are already covered by the peer's unacked-egress
// cap.
func (h *Hub) depart(until vtime.Time) {
	h.mu.Lock()
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	for _, ep := range eps {
		ep.departGrant(until.Add(1))
		ep.Flush() // departGrant may dedupe to nothing; drives must still go out
	}
}

// departGrant sends a grant covering the horizon. It is always sent,
// even when it does not raise the peer's bound: the departing
// subsystem has processed everything it will process this run, and
// the grant's piggybacked Ack is what releases the peer's
// unacked-egress cap — without it the peer could wait forever on
// echoes that will never come.
func (ep *Endpoint) departGrant(g vtime.Time) {
	ep.mu.Lock()
	if ep.policy != Conservative || ep.closed || ep.paused || ep.peerDone {
		ep.mu.Unlock()
		return
	}
	if g <= ep.lastSent && ep.stats.DataIn <= ep.lastDepartData {
		// Nothing new to tell the peer: the grant would not raise its
		// bound and our Ack has not moved past any of its data.
		// Resending anyway would ping-pong departure grants between
		// idle peers forever in round-based drivers.
		ep.mu.Unlock()
		return
	}
	if g < ep.lastSent {
		g = ep.lastSent // idempotent re-grant as an ack carrier
	}
	ep.lastSent = g
	ep.lastDepartData = ep.stats.DataIn
	if ep.pendingAsk > 0 && g >= ep.pendingAsk {
		ep.pendingAsk = 0
	}
	ep.stats.GrantsOut++
	flush := ep.queueLocked(ep.nextOut(Message{Kind: KindSafeTimeGrant, Grant: g}), true)
	tl := ep.tl
	ep.mu.Unlock()
	tl.Grant(ep.local, ep.peer, g)
	if flush {
		ep.Flush()
	}
}

// Subsystem returns the hub's subsystem.
func (h *Hub) Subsystem() *core.Subsystem { return h.sub }

// Endpoints returns the endpoints in creation order.
func (h *Hub) Endpoints() []*Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]*Endpoint(nil), h.eps...)
}

// Endpoint returns the endpoint toward the named peer, or nil.
func (h *Hub) Endpoint(peer string) *Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ep := range h.eps {
		if ep.peer == peer {
			return ep
		}
	}
	return nil
}

// NewEndpoint creates a channel endpoint toward the named peer
// subsystem. The endpoint registers itself as an ingress source and,
// for conservative policy, as a gate on the subsystem.
func (h *Hub) NewEndpoint(peer string, policy Policy, link LinkModel, tr Transport) (*Endpoint, error) {
	if err := link.Validate(policy == Conservative); err != nil {
		return nil, err
	}
	if h.Endpoint(peer) != nil {
		return nil, fmt.Errorf("channel: duplicate endpoint %s -> %s", h.sub.Name(), peer)
	}
	ep := &Endpoint{
		hub:    h,
		sub:    h.sub,
		local:  h.sub.Name(),
		peer:   peer,
		policy: policy,
		link:   link,
		tr:     tr,
	}
	h.mu.Lock()
	ep.tl = h.tl
	h.eps = append(h.eps, ep)
	h.mu.Unlock()
	h.sub.AddExternal()
	if policy == Conservative {
		h.sub.AddGate(ep)
	}
	return ep, nil
}

// inBound is the earliest virtual time at which anything can still
// arrive from this endpoint's peer, as far as the peer has promised:
// its latest grant (a finished peer counts as Infinity).
func (ep *Endpoint) inBound() (bound vtime.Time, conservative bool) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.policy != Conservative {
		return 0, false
	}
	return ep.boundLocked(), true
}

// publish runs on the scheduler goroutine after each key publication:
// push grants that have risen, answer pending asks, and forward asks
// we cannot yet satisfy. The grant toward peer X is
//
//	min(own next key, min over peers P != X of inBound(P)) + lookahead(X)
//
// — the paper's rule: "the time a subsystem reports is essentially
// its own subsystem time with all restrictions from the opposite
// processor removed. If this were not the case, there would be
// deadlock." Excluding X makes the grant independent of what X has
// granted us, so a bidirectional pair resolves immediately and a
// chain resolves in one hop per link; the influence of X's own
// in-flight messages on us is handled on X's side, which caps its
// gate bound by the arrival times of its unacknowledged egress (see
// Bound). This is also exactly why the paper restricts the subsystem
// graph to simple cycles: around a longer cycle the exclusions no
// longer decouple the recursion.
func (h *Hub) publish(_ vtime.Time) {
	_, key := h.sub.PublishedTimes()
	h.mu.Lock()
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	f := key // global floor, for ask-forwarding decisions
	bounds := make([]vtime.Time, len(eps))
	for i, ep := range eps {
		b, conservative := ep.inBound()
		if !conservative {
			b = vtime.Infinity
		}
		bounds[i] = b
		if b < f {
			f = b
		}
	}
	for i, ep := range eps {
		// Floor excluding the target's own restriction.
		fx := key
		for j, b := range bounds {
			if j != i && b < fx {
				fx = b
			}
		}
		ep.pushGrant(fx)
	}
	// Ask forwarding: a pending ask we cannot satisfy because our
	// floor is capped by grants we hold (not by our own work) is
	// relayed upstream, so demand propagates along chains. Driven
	// only by genuine demand and bounded by the original ask, idle
	// systems stay silent.
	needed := vtime.Time(0)
	for _, ep := range eps {
		if ep.policy != Conservative {
			continue
		}
		ep.mu.Lock()
		if ep.pendingAsk > 0 {
			if want := ep.pendingAsk.Add(-ep.link.Lookahead()); want > needed {
				needed = want
			}
		}
		ep.mu.Unlock()
	}
	if needed == 0 || f >= needed || f >= key {
		// Nothing demanded, already satisfiable, or our own pending
		// work is the cap — forwarding cannot help.
		return
	}
	for _, ep := range eps {
		if ep.policy != Conservative {
			continue
		}
		ep.mu.Lock()
		below := !ep.peerDone && ep.boundLocked() < needed
		ep.mu.Unlock()
		if below {
			ep.Request(needed)
		}
	}
}

// Close announces completion to every peer (a grant of Infinity) and
// closes the transports. Call after the subsystem's Run returns.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	eps := append([]*Endpoint(nil), h.eps...)
	h.mu.Unlock()
	var first error
	for _, ep := range eps {
		if err := ep.sendClose(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Endpoint is one side of a channel between two subsystems. It plays
// the role of the paper's channel component: a proxy for the
// subsystem on the opposite side, owning the hidden ports added to
// split nets, coordinating time across the channel, and carrying the
// snapshot marks. Like Pia's channel components it has no thread of
// its own — egress runs on the subsystem's scheduler, ingress on the
// transport's pump.
type Endpoint struct {
	hub    *Hub
	sub    *core.Subsystem
	local  string
	peer   string
	policy Policy
	link   LinkModel
	tr     Transport

	mu             sync.Mutex
	grants         []grantRec // frontier of the peer's promises (see bound)
	lastAsk        vtime.Time // ask we sent most recently
	lastAskData    int64      // stats.DataIn when it was sent
	lastAskSeqOut  uint64     // seqOut when it was sent
	lastGrantData  int64      // stats.DataIn at our last grant push
	lastGrantAck   uint64     // seqInNext at our last grant push
	lastDepartData int64      // stats.DataIn at our last departure grant
	pendingAsk     vtime.Time // the peer's latest ask, 0 none
	lastSent       vtime.Time // highest grant we pushed
	busyUntil      vtime.Time // link serialization horizon
	seqOut         uint64
	seqInNext      uint64
	unacked        []egressRec // our egress not yet covered by every frontier grant
	recording      bool
	recorded       []Message
	closed         bool
	paused         bool // rewind in progress: egress discarded
	peerDone       bool
	protoErr       error
	stats          Stats
	markFn         func(tag string)
	restoreFn      func(tag string)
	stragglerFn    func(t vtime.Time) bool
	tl             *timeline.Recorder // nil unless EnableTimeline wired it

	// binds tracks the nets this endpoint bridges: local net name ->
	// remote fragment name. Migration re-homes nets by unbinding here
	// and rebinding on another endpoint under the new placement epoch.
	binds map[string]string

	// Egress. Messages are appended to pendingOut under ep.mu in
	// nextOut order, so the queue is the seq order; flush extracts the
	// whole queue and hands it to the transport under sendMu, which
	// serializes flushes and keeps batches in order. Without
	// coalescing every message flushes at once: a batch of one.
	coalesce     CoalesceConfig
	pendingOut   []Message
	spareOut     []Message // previous batch's backing array, reused
	pendingBytes int
	holdBase     vtime.Time // Time of the first queued drive

	sendMu sync.Mutex // serializes flushes; never taken under ep.mu

	// Flush accounting for round-based drivers (pia.Simulation.Run):
	// queuedN counts messages enqueued by the transport pump,
	// handledN counts messages fully processed by the scheduler.
	queuedN  atomic.Int64
	handledN atomic.Int64
}

// SentCount returns how many messages this endpoint has emitted.
func (ep *Endpoint) SentCount() int64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return int64(ep.seqOut)
}

// QueuedCount returns how many peer messages have reached the local
// injection queue.
func (ep *Endpoint) QueuedCount() int64 { return ep.queuedN.Load() }

// HandledCount returns how many peer messages the scheduler has fully
// processed.
func (ep *Endpoint) HandledCount() int64 { return ep.handledN.Load() }

// Name implements core.Gate.
func (ep *Endpoint) Name() string { return graph.ChannelComponentName(ep.local, ep.peer) }

// Peer returns the peer subsystem's name.
func (ep *Endpoint) Peer() string { return ep.peer }

// Policy returns the channel policy.
func (ep *Endpoint) Policy() Policy { return ep.policy }

// Link returns the channel's link model.
func (ep *Endpoint) Link() LinkModel { return ep.link }

// Stats returns a copy of the counters.
func (ep *Endpoint) Stats() Stats {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.stats
}

// Err returns the first protocol or transport error the endpoint
// observed, on ingress or egress. A data value with no wire encoding
// surfaces here as an *UnencodableValueError.
func (ep *Endpoint) Err() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.protoErr
}

// egressRec tracks one outgoing data message the peer may still react
// to under some frontier grant.
type egressRec struct {
	seq     uint64
	arrival vtime.Time
}

// grantRec is one promise from the peer: "given everything of yours I
// had processed up to Ack, nothing will arrive from me below Val."
// Your messages beyond Ack may provoke earlier reactions, so the
// promise is capped by their echo times at evaluation.
type grantRec struct {
	val vtime.Time
	ack uint64
}

// Quiesced implements core.GateQuiescer: the endpoint owes the peer
// nothing when no ask is outstanding.
func (ep *Endpoint) Quiesced() bool {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.pendingAsk == 0
}

// Bound implements core.Gate: the earliest virtual time at which
// anything can still arrive from the peer. Each frontier grant was
// computed with our restriction removed, so it does not account for
// the peer's reactions to messages of ours it had not yet processed
// when granting (seq beyond its Ack); each grant is therefore capped
// by the earliest echo of that egress (arrival at the peer plus the
// return lookahead), and the bound is the best-capped grant.
func (ep *Endpoint) Bound() vtime.Time {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.boundLocked()
}

func (ep *Endpoint) boundLocked() vtime.Time {
	if ep.peerDone {
		return vtime.Infinity
	}
	best := vtime.Time(0)
	for _, g := range ep.grants {
		cand := g.val
		for _, rec := range ep.unacked {
			if rec.seq <= g.ack {
				continue // the grant already accounted for this one
			}
			if echo := rec.arrival.Add(ep.link.Lookahead()); echo < cand {
				cand = echo
			}
		}
		if cand > best {
			best = cand
		}
	}
	return best
}

// addGrant merges a new promise into the frontier, dropping dominated
// entries and egress records covered by every remaining grant.
// Caller holds ep.mu.
func (ep *Endpoint) addGrant(val vtime.Time, ack uint64) {
	kept := ep.grants[:0]
	dominated := false
	for _, g := range ep.grants {
		if g.val <= val && g.ack <= ack {
			continue // dominated by the new grant
		}
		if g.val >= val && g.ack >= ack {
			dominated = true
		}
		kept = append(kept, g)
	}
	ep.grants = kept
	if !dominated {
		ep.grants = append(ep.grants, grantRec{val: val, ack: ack})
	}
	minAck := ^uint64(0)
	for _, g := range ep.grants {
		if g.ack < minAck {
			minAck = g.ack
		}
	}
	keptE := ep.unacked[:0]
	for _, rec := range ep.unacked {
		if rec.seq > minAck {
			keptE = append(keptE, rec)
		}
	}
	ep.unacked = keptE
}

// Request implements core.Gate: ask the peer for a safe time of at
// least t — a pure demand (the paper's "request a safe time from the
// subsystem on the far end of the channel"). An ask is re-sent when
// t rises, after new peer data has arrived since the last one (the
// piggybacked Ack then refreshes the peer's view of what is still in
// flight), or after we have sent new egress (whose echoes cap every
// grant issued against the old ask, so only a reply to a fresher ask
// can raise our bound).
func (ep *Endpoint) Request(t vtime.Time) {
	ep.mu.Lock()
	stale := ep.stats.DataIn > ep.lastAskData || ep.seqOut > ep.lastAskSeqOut
	if ep.peerDone || ep.closed || ep.paused || (t <= ep.lastAsk && !stale) {
		ep.mu.Unlock()
		return
	}
	if t < ep.lastAsk {
		t = ep.lastAsk // keep the strongest outstanding demand
	}
	ep.lastAsk = t
	ep.lastAskData = ep.stats.DataIn
	ep.stats.AsksOut++
	flush := ep.queueLocked(ep.nextOut(Message{Kind: KindSafeTimeReq, Ask: t}), true)
	ep.lastAskSeqOut = ep.seqOut
	tl := ep.tl
	ep.mu.Unlock()
	tl.Ask(ep.local, ep.peer, t)
	if flush {
		ep.Flush()
	}
}

// BindNet attaches the endpoint to a split net: a hidden port is
// added to the local fragment, and every value driven on it is
// forwarded to the peer's fragment named remoteNet.
func (ep *Endpoint) BindNet(localNet *core.Net, remoteNet string) error {
	name := graph.HiddenPortName(localNet.Name, ep.peer)
	_, err := ep.sub.AttachHidden(localNet, name, ep.Name(), func(m core.Msg) {
		ep.egress(remoteNet, m)
	})
	if err != nil {
		return err
	}
	ep.mu.Lock()
	if ep.binds == nil {
		ep.binds = make(map[string]string)
	}
	ep.binds[localNet.Name] = remoteNet
	ep.mu.Unlock()
	return nil
}

// UnbindNet removes the hidden port BindNet added for the given local
// net, so drives on it stop crossing this channel. Only legal between
// runs (the mesh splice step). The endpoint itself stays up — an empty
// channel still exchanges safe-time traffic.
func (ep *Endpoint) UnbindNet(localNet *core.Net) error {
	ep.mu.Lock()
	_, bound := ep.binds[localNet.Name]
	ep.mu.Unlock()
	if !bound {
		return fmt.Errorf("channel: %s does not bind net %s", ep.Name(), localNet.Name)
	}
	name := graph.HiddenPortName(localNet.Name, ep.peer)
	if err := ep.sub.DetachHidden(localNet, name); err != nil {
		return err
	}
	ep.mu.Lock()
	delete(ep.binds, localNet.Name)
	ep.mu.Unlock()
	return nil
}

// Binds returns the local->remote net bindings this endpoint carries.
func (ep *Endpoint) Binds() map[string]string {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	out := make(map[string]string, len(ep.binds))
	for k, v := range ep.binds {
		out[k] = v
	}
	return out
}

// egress forwards a local net drive across the channel.
func (ep *Endpoint) egress(remoteNet string, m core.Msg) {
	size := payloadSize(m.Value)
	ep.mu.Lock()
	if ep.closed || ep.paused {
		// Paused egress belongs to a timeline a rewind is abandoning:
		// the restored run regenerates these drives from scratch.
		ep.mu.Unlock()
		return
	}
	arrive, busy := ep.link.Arrival(m.Sent, size, ep.busyUntil)
	ep.busyUntil = busy
	ep.stats.DataOut++
	ep.stats.BytesOut += int64(size)
	out := ep.nextOut(Message{
		Kind:   KindData,
		Net:    remoteNet,
		Source: m.Source,
		Time:   arrive,
		Value:  m.Value,
	})
	ep.unacked = append(ep.unacked, egressRec{seq: out.Seq, arrival: arrive})
	flush := ep.queueLocked(out, false)
	tl := ep.tl
	ep.mu.Unlock()
	// Recorded at the drive's send time; the peer records the matching
	// delivery at the arrival time, and the exporter pairs the two by
	// committed index into one flow.
	tl.Send(ep.local, ep.peer, remoteNet, m.Sent)
	if flush {
		ep.Flush()
	}
}

// nextOut stamps common fields; caller holds ep.mu.
func (ep *Endpoint) nextOut(m Message) Message {
	ep.seqOut++
	m.Seq = ep.seqOut
	m.From = ep.local
	m.Ack = ep.seqInNext
	return m
}

func (ep *Endpoint) setErr(err error) {
	ep.mu.Lock()
	if ep.protoErr == nil {
		ep.protoErr = err
	}
	ep.mu.Unlock()
}

// SetCoalescing sets the egress flush policy. Safe to call at any
// time; a disable flushes whatever is queued as one last batch.
func (ep *Endpoint) SetCoalescing(cfg CoalesceConfig) {
	ep.mu.Lock()
	ep.coalesce = cfg
	ep.mu.Unlock()
	if !cfg.Enabled() {
		ep.Flush()
	}
}

// queueLocked appends m to the egress queue and reports whether the
// caller must flush after releasing ep.mu. Caller holds ep.mu; m must
// already be stamped by nextOut so queue order is seq order.
func (ep *Endpoint) queueLocked(m Message, urgent bool) bool {
	ep.pendingOut = append(ep.pendingOut, m)
	if urgent || !ep.coalesce.Enabled() {
		return true
	}
	ep.pendingBytes += payloadSize(m.Value)
	if len(ep.pendingOut) == 1 {
		ep.holdBase = m.Time
	}
	if ep.coalesce.MaxMsgs > 0 && len(ep.pendingOut) >= ep.coalesce.MaxMsgs {
		return true
	}
	if ep.coalesce.MaxBytes > 0 && ep.pendingBytes >= ep.coalesce.MaxBytes {
		return true
	}
	if ep.coalesce.MaxHold > 0 && m.Time.Sub(ep.holdBase) >= ep.coalesce.MaxHold {
		return true
	}
	return false
}

// Flush drains the egress queue onto the transport. An empty queue is
// a no-op. Concurrent flushes are serialized by sendMu, and the queue
// is extracted under ep.mu after sendMu is held, so batches leave in
// enqueue (= seq) order even when several goroutines race to flush.
func (ep *Endpoint) Flush() {
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	ep.mu.Lock()
	batch := ep.pendingOut
	// Swap in the previous batch's array: steady state allocates
	// nothing. The array being handed to the transport below is not
	// reused until the next flush, which sendMu holds off.
	ep.pendingOut = ep.spareOut[:0]
	ep.spareOut = batch
	ep.pendingBytes = 0
	if len(batch) > 0 {
		ep.stats.Flushes++
		ep.stats.FlushedMsgs += int64(len(batch))
	}
	ep.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	if err := ep.tr.SendBatch(batch); err != nil {
		ep.setErr(fmt.Errorf("channel %s: send: %w", ep.Name(), err))
	}
}

// PendingOut returns how many egress messages are queued, unflushed.
func (ep *Endpoint) PendingOut() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.pendingOut)
}

// pushGrant computes this subsystem's grant toward the peer from the
// given floor and pushes it when it helps an outstanding ask. Runs on
// the scheduler goroutine.
//
// Grants are strictly solicited and never exceed the pending ask.
// This is what keeps every grant fresh: the ask it answers was sent
// (FIFO) after everything the asker had transmitted, so the floor
// used here already accounts for every input that could make this
// subsystem act earlier — an unsolicited grant, by contrast, can be
// overtaken by a peer message already in flight when it is computed,
// leaving the peer holding a promise the grantor can no longer keep.
// "Never again" is expressed only by an explicit Close.
func (ep *Endpoint) pushGrant(floor vtime.Time) {
	g := floor.Add(ep.link.Lookahead())
	ep.mu.Lock()
	if ep.closed || ep.paused || ep.policy != Conservative {
		ep.mu.Unlock()
		return
	}
	pending := ep.pendingAsk
	if pending == 0 {
		ep.mu.Unlock()
		return
	}
	if g > pending {
		g = pending
	}
	// Send when the grant satisfies the demand, improves the last
	// sent value by at least one lookahead (the lifting chain moves
	// in >= lookahead increments, so holding back smaller
	// improvements bounds chatter without hurting liveness), or
	// repeats a value with a fresh Ack after new peer data — the
	// refreshed Ack is what lifts the peer's echo cap on that data.
	// Values need not be monotone: each grant stands on the floor of
	// its own instant, and the receiver's frontier keeps whichever
	// (value, ack) combinations bound it best.
	refresh := ep.stats.DataIn > ep.lastGrantData
	improved := g >= pending || g.Sub(ep.lastSent) >= ep.link.Lookahead()
	duplicate := g == ep.lastSent && ep.seqInNext == ep.lastGrantAck
	if duplicate || (!improved && !refresh) {
		ep.mu.Unlock()
		return
	}
	ep.lastSent = g
	ep.lastGrantData = ep.stats.DataIn
	ep.lastGrantAck = ep.seqInNext
	if g >= pending {
		ep.pendingAsk = 0
	}
	ep.stats.GrantsOut++
	if DebugHook != nil {
		dbg("%s PUSH grant=%v floor=%v pending=%v myAck=%d", ep.Name(), g, floor, pending, ep.seqInNext)
	}
	flush := ep.queueLocked(ep.nextOut(Message{Kind: KindSafeTimeGrant, Grant: g}), true)
	tl := ep.tl
	ep.mu.Unlock()
	tl.Grant(ep.local, ep.peer, g)
	if flush {
		ep.Flush()
	}
}

// sendClose announces completion.
func (ep *Endpoint) sendClose() error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return nil
	}
	ep.closed = true
	ep.queueLocked(ep.nextOut(Message{Kind: KindClose}), true)
	ep.mu.Unlock()
	ep.Flush() // everything queued, then the close, then the transport goes down
	return ep.tr.Close()
}

// SetMarkHandler registers the Chandy-Lamport mark callback.
func (ep *Endpoint) SetMarkHandler(fn func(tag string)) {
	ep.mu.Lock()
	ep.markFn = fn
	ep.mu.Unlock()
}

// SetRestoreHandler registers the coordinated-restore callback.
func (ep *Endpoint) SetRestoreHandler(fn func(tag string)) {
	ep.mu.Lock()
	ep.restoreFn = fn
	ep.mu.Unlock()
}

// SetStragglerHandler overrides the default straggler reaction
// (Subsystem.RequestRollback); the snapshot coordinator installs a
// distributed restore here. The handler returns whether the straggler
// message itself must be redelivered after the rollback: true for a
// local-only rollback (the sender will not resend), false for a
// coordinated restore (the sender rewinds past its send and will
// regenerate the message).
func (ep *Endpoint) SetStragglerHandler(fn func(t vtime.Time) bool) {
	ep.mu.Lock()
	ep.stragglerFn = fn
	ep.mu.Unlock()
}

// SendMark emits a snapshot mark toward the peer.
func (ep *Endpoint) SendMark(tag string) {
	ep.mu.Lock()
	if ep.closed || ep.paused {
		ep.mu.Unlock()
		return
	}
	ep.queueLocked(ep.nextOut(Message{Kind: KindMark, Tag: tag}), true)
	ep.mu.Unlock()
	ep.Flush()
}

// SendRestore orders the peer to restore the tagged snapshot.
func (ep *Endpoint) SendRestore(tag string) {
	ep.mu.Lock()
	if ep.closed || ep.paused {
		ep.mu.Unlock()
		return
	}
	ep.queueLocked(ep.nextOut(Message{Kind: KindRestore, Tag: tag}), true)
	ep.mu.Unlock()
	ep.Flush()
}

// SetRecording starts or stops capturing incoming data messages (the
// channel-state half of a Chandy-Lamport snapshot).
func (ep *Endpoint) SetRecording(on bool) {
	ep.mu.Lock()
	ep.recording = on
	if on {
		ep.recorded = nil
	}
	ep.mu.Unlock()
}

// TakeRecorded returns and clears the captured in-flight messages.
func (ep *Endpoint) TakeRecorded() []Message {
	ep.mu.Lock()
	out := ep.recorded
	ep.recorded = nil
	ep.recording = false
	ep.mu.Unlock()
	return out
}

// Replay re-injects previously captured in-flight data messages
// after a coordinated restore.
func (ep *Endpoint) Replay(msgs []Message) {
	for _, m := range msgs {
		if m.Kind != KindData {
			continue
		}
		_ = ep.sub.InjectDrive(m.Net, m.Source, m.Time, m.Value)
	}
}

// OnMessage is the ingress entry point, called by the transport pump
// in arrival order. All processing is deferred to the subsystem's
// scheduler goroutine through the injection queue, which preserves
// the channel's FIFO order relative to every other ingress action —
// the property both the safe-time protocol and the Chandy-Lamport
// marks depend on.
func (ep *Endpoint) OnMessage(m Message) {
	ep.queuedN.Add(1)
	ep.sub.InjectFunc(func() bool {
		retry := ep.process(m)
		if !retry {
			ep.handledN.Add(1)
		}
		return retry
	})
}

// msgBufPool recycles the batch buffers OnMessages hands from the
// transport pump to the scheduler goroutine.
var msgBufPool = sync.Pool{New: func() any { return make([]Message, 0, 64) }}

// OnMessages is the batched ingress entry point: one decoded frame's
// worth of messages, queued as a single injection. Processing order —
// and therefore the channel's FIFO guarantee — is identical to
// calling OnMessage per message; what changes is the cost: one
// injection-queue append and one scheduler wakeup per frame instead
// of one per message. Straggler retry semantics are preserved by
// resuming the in-batch cursor: a message that requests a rollback is
// retried (and the rest of the batch stays behind it) exactly as the
// per-message path would re-queue it at the front.
//
// OnMessages copies msgs before returning, so the caller may reuse
// its slice (the pump's decode buffer) immediately.
func (ep *Endpoint) OnMessages(msgs []Message) {
	switch len(msgs) {
	case 0:
		return
	case 1:
		ep.OnMessage(msgs[0])
		return
	}
	batch := append(msgBufPool.Get().([]Message)[:0], msgs...)
	ep.queuedN.Add(int64(len(batch)))
	i := 0
	ep.sub.InjectFunc(func() bool {
		for i < len(batch) {
			if ep.process(batch[i]) {
				return true // straggler: retry this message after the rollback
			}
			ep.handledN.Add(1)
			i++
		}
		for j := range batch {
			batch[j] = Message{} // drop payload references
		}
		msgBufPool.Put(batch[:0]) //nolint:staticcheck // slices are pointer-shaped
		return false
	})
}

// process handles one message on the scheduler goroutine. It returns
// true (retry after rollback) for optimistic stragglers.
func (ep *Endpoint) process(m Message) bool {
	if DebugHook != nil {
		dbg("%s PROC seq=%d ack=%d %v", ep.Name(), m.Seq, m.Ack, m)
	}
	ep.mu.Lock()
	if !ep.seqChecked(m) {
		ep.seqInNext = m.Seq
	}
	switch m.Kind {
	case KindData:
		if ep.recording {
			ep.recorded = append(ep.recorded, m)
		}
		if m.Time < ep.sub.Now() {
			if ep.policy == Optimistic {
				ep.stats.Stragglers++
				fn := ep.stragglerFn
				// A straggler is not "received": undo the bookkeeping
				// this attempt did.
				if ep.recording {
					ep.recorded = ep.recorded[:len(ep.recorded)-1]
				}
				tl := ep.tl
				ep.mu.Unlock()
				tl.Straggler(ep.peer, ep.local, m.Net, m.Time, ep.sub.Now())
				redeliver := true
				if fn != nil {
					redeliver = fn(m.Time)
				} else {
					ep.sub.RequestRollback(m.Time)
				}
				if redeliver {
					ep.mu.Lock()
					ep.seqInNext--
					ep.mu.Unlock()
					return true // re-deliver after the restore
				}
				return false
			}
			if ep.protoErr == nil {
				ep.protoErr = fmt.Errorf("channel %s: conservative causality violation: data @%v behind subsystem time %v", ep.Name(), m.Time, ep.sub.Now())
			}
		}
		ep.stats.DataIn++
		ep.stats.BytesIn += int64(payloadSize(m.Value))
		tl := ep.tl
		ep.mu.Unlock()
		tl.Deliver(ep.peer, ep.local, m.Net, m.Time)
		_ = ep.sub.DriveNow(m.Net, m.Source, m.Time, m.Value)
	case KindSafeTimeReq:
		ep.stats.AsksIn++
		// Record the demand; the answer is always computed fresh at
		// the next publish, with the floor and Ack of the same
		// instant. (Replying here with a previously sent value would
		// pair an old promise with a new Ack — the new Ack may cover
		// data whose reactions the old value never accounted for.)
		if m.Ask > ep.pendingAsk {
			ep.pendingAsk = m.Ask
		}
		ep.mu.Unlock()
	case KindSafeTimeGrant:
		ep.stats.GrantsIn++
		// A grant is a promise relative to its Ack: merge it into the
		// frontier; Bound() evaluates each frontier grant capped by
		// the echoes of egress that grant had not seen.
		ep.addGrant(m.Grant, m.Ack)
		ep.mu.Unlock()
	case KindMark:
		fn := ep.markFn
		ep.mu.Unlock()
		if fn != nil {
			fn(m.Tag)
		}
	case KindRestore:
		fn := ep.restoreFn
		ep.mu.Unlock()
		if fn != nil {
			fn(m.Tag)
		}
	case KindClose:
		wasDone := ep.peerDone
		ep.peerDone = true
		ep.mu.Unlock()
		if !wasDone {
			ep.sub.RemoveExternal()
		}
	default:
		ep.mu.Unlock()
	}
	return false
}

// LastSeqIn returns the highest channel sequence number processed
// from the peer — diagnostic context for peer-loss errors.
func (ep *Endpoint) LastSeqIn() uint64 {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.seqInNext
}

// ResetProtocol zeroes all per-connection protocol state for a
// checkpoint rewind: both sides of the channel restart framing from
// sequence 1 with no outstanding grants, asks or unacked egress, as
// if the channel had just been built. Egress is paused — drives of
// the abandoned timeline are discarded — until ResumeProtocol.
//
// Call on the subsystem's scheduler goroutine (via InjectFunc), after
// every message of the dead connection epoch has drained from the
// injection queue; calling earlier would interleave old-timeline
// sequence numbers with the reset counters.
func (ep *Endpoint) ResetProtocol() {
	ep.mu.Lock()
	ep.paused = true
	ep.grants = nil
	ep.unacked = nil
	ep.pendingAsk = 0
	ep.lastAsk = 0
	ep.lastAskData = 0
	ep.lastAskSeqOut = 0
	ep.lastGrantData = 0
	ep.lastGrantAck = 0
	ep.lastDepartData = 0
	ep.lastSent = 0
	ep.busyUntil = 0
	ep.seqOut = 0
	ep.seqInNext = 0
	ep.pendingOut = ep.pendingOut[:0]
	ep.pendingBytes = 0
	ep.holdBase = 0
	// A transport error from the dying epoch is part of what the
	// rewind recovers from.
	ep.protoErr = nil
	ep.mu.Unlock()
}

// ResumeProtocol reopens egress after a rewind's restore completes.
func (ep *Endpoint) ResumeProtocol() {
	ep.mu.Lock()
	ep.paused = false
	ep.mu.Unlock()
}

// seqChecked verifies FIFO sequencing; caller holds ep.mu.
func (ep *Endpoint) seqChecked(m Message) bool {
	ep.seqInNext++
	if m.Seq == ep.seqInNext {
		return true
	}
	ep.stats.SeqErrors++
	if ep.protoErr == nil {
		ep.protoErr = fmt.Errorf("channel %s: FIFO violation: got seq %d, want %d", ep.Name(), m.Seq, ep.seqInNext)
	}
	return false
}
