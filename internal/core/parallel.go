package core

// Safe-horizon parallel rounds.
//
// Pia's two-level virtual time (subsystem time <= the local time of
// every component) is a conservative-lookahead structure: a component
// whose next action is at key k cannot affect any other component
// before k + outLA, where outLA is the minimum propagation delay of
// the nets its ports attach to. The horizon
//
//	H = min over runnable components of key + outLA
//
// therefore bounds the earliest instant at which any pending action
// could influence another component. Every component whose next
// action is strictly below H can be executed independently: whatever
// it sends arrives at or after H, so no round member can observe
// another member's output within the round.
//
// The scheduler exploits this by dispatching all such components to a
// bounded worker pool at once. Each member runs on its own goroutine
// (the ordinary cooperative handshake, just driven by a worker) and
// may keep acting inline up to H via the fast paths in proc.go. Side
// effects — net drives, trace lines, runlevel notes — are accumulated
// in a per-member buffer, tagged with the virtual time of the fused
// step that produced them, and replayed on the scheduler goroutine in
// (time, component-index) order once the round completes. That is
// exactly the order in which the step-at-a-time scheduler would have
// emitted them, so virtual times, per-net drive counts and trace
// digests are bit-for-bit identical to a sequential run.
//
// The horizon is additionally capped by every gate bound, by the run
// horizon `until`, and by the next automatic checkpoint cut, so a
// round never spans a point where the sequential scheduler would have
// stopped to stall, depart or capture. External requests (stop,
// injections, rollbacks, checkpoint tags) invalidate the round's
// cached generation counter, which makes members fall back to a real
// park; the requests are absorbed at the next loop top, exactly as in
// sequential execution.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/vtime"
)

// planInfo is the result of one runnable-index scan: the sequential
// pick (best/key), the runner-up under the same (key, index) order
// (the inline fast-path bound), and the safe horizon.
type planInfo struct {
	best    *Component
	key     vtime.Time
	key2    vtime.Time
	idx2    int
	horizon vtime.Time
}

// opKind tags a buffered side effect.
type opKind uint8

const (
	opDrive opKind = iota
	opTrace
	opRunlevel
)

// parOp is one deferred side effect produced while a worker held a
// component's token. at is the virtual time of the fused step that
// produced it; the merge replays ops across all round members in
// (at, component-index) order.
type parOp struct {
	at   vtime.Time
	kind opKind
	net  *Net
	t    vtime.Time
	v    any
	str  string
}

// workerBuf collects one round member's deferred side effects, the
// round-local stat counts, and — for speculative members — the
// rollback journal and straggler bookkeeping (see optimistic.go).
type workerBuf struct {
	c   *Component
	ops []parOp

	// Buffered stats, folded in at merge time iff the member commits.
	steps  int64
	delivs int64

	// Speculative (past-horizon) dispatch state.
	spec    bool          // member runs past the safe horizon
	aborted bool          // straggler detected: discard, restore, replay
	inert   bool          // observed and emitted nothing: commits freely
	expired bool          // a RecvDeadline expired: a negative observation
	popped  []event.Event // inbox pops journaled for rollback re-push
	postKey vtime.Time    // member's parked key after the round
}

func (b *workerBuf) push(op parOp) { b.ops = append(b.ops, op) }

// opRef orders buffered ops across members without copying them.
type opRef struct {
	buf *workerBuf
	i   int
}

// parJob is one dispatched round member.
type parJob struct {
	c   *Component
	key vtime.Time
}

// prepareLookahead caches each component's output lookahead. Topology
// is fixed while running, so this runs once per Run. A component with
// no attached nets can never affect anyone: infinite lookahead.
func (s *Subsystem) prepareLookahead() {
	for _, c := range s.order {
		la := vtime.Duration(vtime.Infinity)
		for _, p := range c.ports {
			if p.net != nil && p.net.Delay < la {
				la = p.net.Delay
			}
		}
		c.outLA = la
	}
}

// scan sweeps the runnable index: it compacts components that can no
// longer act without outside input, finds the minimum-key component
// under the (key, creation-index) order — the sequential pick — plus
// the runner-up, and computes the safe horizon.
func (s *Subsystem) scan() planInfo {
	pi := planInfo{key: vtime.Infinity, key2: vtime.Infinity, horizon: vtime.Infinity}
	kept := s.active[:0]
	for _, c := range s.active {
		k := c.key()
		if k == vtime.Infinity {
			c.active = false
			continue
		}
		kept = append(kept, c)
		c.planKey = k
		if h := k.Add(c.outLA); h < pi.horizon {
			pi.horizon = h
		}
		if pi.best == nil {
			pi.best, pi.key = c, k
		} else if k < pi.key || (k == pi.key && c.index < pi.best.index) {
			// The old best is, by induction, still ahead of the old
			// runner-up in (key, index) order: demote it.
			pi.key2, pi.idx2 = pi.key, pi.best.index
			pi.best, pi.key = c, k
		} else if k < pi.key2 || (k == pi.key2 && c.index < pi.idx2) {
			pi.key2, pi.idx2 = k, c.index
		}
	}
	// Clear compacted tail slots so dropped components can be
	// collected.
	for i := len(kept); i < len(s.active); i++ {
		s.active[i] = nil
	}
	s.active = kept
	return pi
}

// startPool launches the round workers for one Run.
func (s *Subsystem) startPool() {
	s.workCh = make(chan parJob, len(s.order)+1)
	for i := 0; i < s.workers; i++ {
		s.poolWG.Add(1)
		go func() {
			defer s.poolWG.Done()
			for job := range s.workCh {
				s.stepTimed(job.c, job.key)
				s.roundWG.Done()
			}
		}()
	}
}

// stopPool drains and joins the round workers.
func (s *Subsystem) stopPool() {
	close(s.workCh)
	s.poolWG.Wait()
	s.workCh = nil
}

// runParallelRound dispatches every component whose next action lies
// strictly inside the safe horizon to the worker pool and merges the
// buffered effects. Returns false — leaving the sequential path to
// execute the step — when the round would hold fewer than two
// components.
func (s *Subsystem) runParallelRound(pi planInfo, until vtime.Time) bool {
	if s.optimism == 0 && pi.horizon <= pi.key {
		return false
	}
	// Cap the round at every point where the step-at-a-time scheduler
	// would have paused: gate bounds (advancing to exactly Bound() is
	// allowed), the run horizon, the next automatic checkpoint cut.
	// The cap applies equally to the safe horizon and the speculation
	// bound: a speculation may be wrong about its peers, never about
	// an external synchronization point.
	roundCap := vtime.Infinity
	for _, g := range s.gateList() {
		if gb := g.Bound().Add(1); gb < roundCap {
			roundCap = gb
		}
	}
	if until != vtime.Infinity {
		if u := until.Add(1); u < roundCap {
			roundCap = u
		}
	}
	if s.autoCkpt > 0 {
		if t := s.lastAuto.Add(s.autoCkpt); t < roundCap {
			roundCap = t
		}
	}
	H := pi.horizon
	if roundCap < H {
		H = roundCap
	}

	members := s.members[:0]
	for _, c := range s.active {
		if c.planKey < H {
			members = append(members, c)
		}
	}
	safe := len(members)

	// Optimistic extension (see optimistic.go): when the safe cohort
	// would leave workers idle, dispatch checkpointable components
	// speculatively up to B = H + W. Their effects are buffered like
	// everyone else's; the merge detects stragglers and rolls the
	// affected members back to the image captured here.
	spec := 0
	B := H
	if W := s.optimismWindow(); W > 0 && safe < s.poolSize() && H < roundCap {
		B = H.Add(W)
		if roundCap < B {
			B = roundCap
		}
		if B > H {
			for _, c := range s.active {
				if c.planKey >= H && c.planKey < B && s.captureSpec(c) {
					members = append(members, c)
					spec++
				}
			}
		}
	}
	s.members = members
	if len(members) < 2 || (spec == 0 && H <= pi.key) {
		return false
	}
	// Canonical member order: the order the sequential scheduler
	// would first reach each member's pending action.
	sort.Slice(members, func(i, j int) bool {
		if members[i].planKey != members[j].planKey {
			return members[i].planKey < members[j].planKey
		}
		return members[i].index < members[j].index
	})
	gen := s.extGen.Load()
	for _, c := range members {
		c.wbuf = s.grabBuf(c)
		// The sequential clock would read the member's own key at its
		// step (keys are processed in ascending order).
		c.viewNow = c.planKey
		c.fastUntil = H
		if c.planKey >= H {
			// Speculative member: free to act up to the optimism
			// bound. Safe members stay pinned below H — they carry no
			// image and must never need one.
			c.wbuf.spec = true
			c.fastUntil = B
		}
		c.fastGen = gen
	}
	atomic.AddInt64(&s.stats.ParRounds, 1)
	if spec > 0 {
		atomic.AddInt64(&s.stats.SpecRounds, 1)
		atomic.AddInt64(&s.stats.SpecMembers, int64(spec))
	}
	s.roundWG.Add(len(members))
	if s.sharedPool != nil {
		// The shared pool copies the jobs into its own queue: members
		// aliases the s.members scratch slice, which the next round
		// reuses.
		s.sharedPool.submit(s, members)
	} else {
		for _, c := range members {
			s.workCh <- parJob{c: c, key: c.planKey}
		}
	}
	s.roundWG.Wait()
	s.mergeRound(members, spec)
	return true
}

// mergeRound replays the round's buffered side effects on the
// scheduler goroutine in canonical order and advances the subsystem
// clock to the last action the round executed. With speculative
// members in the round, detection runs first: straggler-hit members
// are marked aborted, their buffered effects are skipped entirely,
// and they are rolled back to their pre-round images after the
// surviving effects have been applied (so committed deliveries land
// in the restored inboxes).
func (s *Subsystem) mergeRound(members []*Component, spec int) {
	aborted := 0
	if spec > 0 {
		aborted = s.detectStragglers(members)
	}
	refs := s.mergeRefs[:0]
	for _, c := range members {
		buf := c.wbuf
		if buf.aborted {
			continue
		}
		for i := range buf.ops {
			refs = append(refs, opRef{buf: buf, i: i})
		}
	}
	// Stable: ops of one member are already in program order and
	// share an index, so equal (at, index) pairs keep their order.
	sort.SliceStable(refs, func(i, j int) bool {
		oa, ob := &refs[i].buf.ops[refs[i].i], &refs[j].buf.ops[refs[j].i]
		if oa.at != ob.at {
			return oa.at < ob.at
		}
		return refs[i].buf.c.index < refs[j].buf.c.index
	})
	for _, r := range refs {
		op := &r.buf.ops[r.i]
		switch op.kind {
		case opDrive:
			s.driveFrom(op.net, nil, r.buf.c.name, op.t, op.v, false)
		case opTrace:
			if s.Tracer != nil {
				s.Tracer(op.str)
			}
		case opRunlevel:
			s.noteRunlevel(r.buf.c, op.str)
		}
	}
	s.mergeRefs = refs[:0]

	maxView := s.now
	var failed *Component
	commits := 0
	for _, c := range members {
		b := c.wbuf
		if b.aborted {
			s.rollbackSpec(c)
		} else {
			if c.viewNow > maxView {
				maxView = c.viewNow
			}
			if b.steps != 0 {
				atomic.AddInt64(&s.stats.Steps, b.steps)
			}
			if b.delivs != 0 {
				atomic.AddInt64(&s.stats.Deliveries, b.delivs)
			}
			if b.spec {
				commits++
			}
			if failed == nil && c.err != nil && c.status == statusDone {
				failed = c
			}
		}
		s.activate(c)
		s.releaseBuf(b)
		c.wbuf = nil
	}
	if spec > 0 {
		if commits > 0 {
			atomic.AddInt64(&s.stats.SpecCommits, int64(commits))
		}
		s.noteSpecOutcome(spec, aborted)
	}
	// Catch the subsystem clock (and idle local times) up to the last
	// action executed, as the step-at-a-time scheduler would have
	// after stepping every member. Rolled-back members do not count:
	// their replay happens strictly after every committed action — the
	// GVT rule (see detectStragglers) guarantees maxView over
	// committed members never overtakes a restored member's earliest
	// replay action or pending delivery.
	if maxView > s.now {
		s.now = maxView
		for _, c := range s.order {
			if c.status == statusRecv && c.localTime < s.now {
				c.localTime = s.now
			}
		}
	}
	if failed != nil && s.fatal == nil {
		s.fatal = fmt.Errorf("core: component %s failed: %w", failed.name, failed.err)
	}
}

// grabBuf takes a recycled worker buffer or makes one.
func (s *Subsystem) grabBuf(c *Component) *workerBuf {
	if n := len(s.bufFree); n > 0 {
		b := s.bufFree[n-1]
		s.bufFree = s.bufFree[:n-1]
		b.c = c
		return b
	}
	return &workerBuf{c: c}
}

// releaseBuf recycles a worker buffer, dropping payload references.
func (s *Subsystem) releaseBuf(b *workerBuf) {
	for i := range b.ops {
		b.ops[i] = parOp{}
	}
	b.ops = b.ops[:0]
	for i := range b.popped {
		b.popped[i] = event.Event{}
	}
	b.popped = b.popped[:0]
	b.steps, b.delivs = 0, 0
	b.spec, b.aborted, b.inert, b.expired = false, false, false, false
	b.postKey = 0
	b.c = nil
	s.bufFree = append(s.bufFree, b)
}
