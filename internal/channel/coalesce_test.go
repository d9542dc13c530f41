package channel

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// fakeBatchTr records the batches the endpoint hands the transport.
type fakeBatchTr struct {
	mu      sync.Mutex
	batches [][]Message
}

func (f *fakeBatchTr) SendBatch(msgs []Message) error {
	cp := append([]Message(nil), msgs...)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.batches = append(f.batches, cp)
	return nil
}

func (f *fakeBatchTr) Close() error { return nil }

func (f *fakeBatchTr) snapshot() [][]Message {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]Message(nil), f.batches...)
}

func coalescingEndpoint(t *testing.T, cfg CoalesceConfig) (*Endpoint, *fakeBatchTr) {
	t.Helper()
	sub := core.NewSubsystem("ss1")
	h := NewHub(sub)
	tr := &fakeBatchTr{}
	// A small deterministic link (like the rest of the suite) so the
	// virtual arrival times in MaxHold tests are easy to reason about:
	// drive(i) arrives at roughly i+6 with no queueing.
	ep, err := h.NewEndpoint("peer", Conservative, LinkModel{Latency: 5, PerMessage: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetCoalescing(cfg)
	return ep, tr
}

func drive(ep *Endpoint, i int) {
	ep.egress("link", core.Msg{Sent: vtime.Time(i), Value: signal.Word(uint32(i)), Source: "prod"})
}

func TestEmptyFlushIsNoOp(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 16})
	ep.Flush()
	ep.Flush()
	if batches := tr.snapshot(); len(batches) != 0 {
		t.Fatalf("empty flush sent %d batches", len(batches))
	}
	if st := ep.Stats(); st.Flushes != 0 {
		t.Fatalf("empty flushes counted: %d", st.Flushes)
	}
}

// TestFlushBeforeAsk is the safety property coalescing must not
// break: a safe-time ask leaves immediately, and every data message
// queued before it goes on the wire first (same batch, earlier
// positions) so FIFO seq order holds at the receiver.
func TestFlushBeforeAsk(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100, MaxBytes: 1 << 20})
	for i := 0; i < 3; i++ {
		drive(ep, i)
	}
	if batches := tr.snapshot(); len(batches) != 0 {
		t.Fatalf("drives under budget flushed early: %d batches", len(batches))
	}
	if n := ep.PendingOut(); n != 3 {
		t.Fatalf("pending %d, want 3", n)
	}
	ep.Request(1000)
	batches := tr.snapshot()
	if len(batches) != 1 {
		t.Fatalf("want 1 batch, got %d", len(batches))
	}
	b := batches[0]
	if len(b) != 4 {
		t.Fatalf("batch carries %d messages, want 4 (3 data + ask)", len(b))
	}
	for i := 0; i < 3; i++ {
		if b[i].Kind != KindData {
			t.Fatalf("batch[%d] = %v, want data before the ask", i, b[i].Kind)
		}
	}
	if b[3].Kind != KindSafeTimeReq || b[3].Ask != 1000 {
		t.Fatalf("batch tail = %+v, want the ask", b[3])
	}
	for i, m := range b {
		if m.Seq != uint64(i+1) {
			t.Fatalf("seq order broken in batch: %+v", b)
		}
	}
	if n := ep.PendingOut(); n != 0 {
		t.Fatalf("queue not drained: %d pending", n)
	}
}

func TestCoalesceCountBudget(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 4})
	for i := 0; i < 8; i++ {
		drive(ep, i)
	}
	batches := tr.snapshot()
	if len(batches) != 2 || len(batches[0]) != 4 || len(batches[1]) != 4 {
		t.Fatalf("count budget of 4 over 8 drives gave %d batches", len(batches))
	}
	if st := ep.Stats(); st.Flushes != 2 || st.FlushedMsgs != 8 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestCoalesceByteBudget(t *testing.T) {
	// Each Word is 4 payload bytes; an 8-byte budget trips on every
	// second drive.
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100, MaxBytes: 8})
	for i := 0; i < 6; i++ {
		drive(ep, i)
	}
	batches := tr.snapshot()
	if len(batches) != 3 {
		t.Fatalf("byte budget gave %d batches, want 3", len(batches))
	}
}

func TestCoalesceMaxHold(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100, MaxHold: 10})
	// Drives sent at 0..4 arrive ~1 tick apart: within the hold span,
	// no flush.
	for i := 0; i < 5; i++ {
		drive(ep, i)
	}
	if batches := tr.snapshot(); len(batches) != 0 {
		t.Fatalf("hold span not reached but %d batches flushed", len(batches))
	}
	// A drive arriving 20 ticks later exceeds MaxHold and forces the
	// flush.
	drive(ep, 30)
	batches := tr.snapshot()
	if len(batches) != 1 || len(batches[0]) != 6 {
		t.Fatalf("hold-span flush: %d batches", len(batches))
	}
}

func TestDisableCoalescingFlushesAndReverts(t *testing.T) {
	ep, tr := coalescingEndpoint(t, CoalesceConfig{MaxMsgs: 100})
	drive(ep, 0)
	drive(ep, 1)
	ep.SetCoalescing(CoalesceConfig{}) // disable: must drain the queue
	batches := tr.snapshot()
	if len(batches) != 1 || len(batches[0]) != 2 {
		t.Fatalf("disable did not flush the queue: %d batches", len(batches))
	}
	drive(ep, 2) // now back on the immediate path: a batch of one
	batches = tr.snapshot()
	if len(batches) != 2 || len(batches[1]) != 1 {
		t.Fatalf("disabled endpoint still holding drives: %d batches", len(batches))
	}
}

// TestCoalescedConservativeDelivery coalesces pipe-connected
// endpoints: pipes carry batches like any transport, so coalescing
// must change only wall-clock timing, never what is delivered or in
// which order. (Batched end-to-end delivery over real TCP is covered
// in the node package tests.)
func TestCoalescedConservativeDelivery(t *testing.T) {
	s1, s2, _, rcv, h1, h2 := twoSubs(t, Conservative, LinkModel{Latency: 5, PerMessage: 1}, 25, 10)
	for _, h := range []*Hub{h1, h2} {
		for _, ep := range h.Endpoints() {
			ep.SetCoalescing(CoalesceConfig{MaxMsgs: 8})
		}
	}
	e1, e2 := runBoth(s1, s2, 1000)
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 25 {
		t.Fatalf("delivered %d, want 25", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken: %v", rcv.Got)
		}
	}
}
