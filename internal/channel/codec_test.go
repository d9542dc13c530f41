package channel

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/signal"
	"repro/internal/vtime"
)

// customVal is not a signal type: it crosses the wire through
// RegisterValue.
type customVal struct {
	A int
	B string
}

// unregisteredVal has no encoding at all.
type unregisteredVal struct{ X int }

func init() {
	RegisterValue(MinValueTag, func(dst []byte, v customVal) []byte {
		dst = binary.AppendVarint(dst, int64(v.A))
		return append(dst, v.B...)
	}, func(b []byte) (customVal, error) {
		a, n := binary.Varint(b)
		if n <= 0 {
			return customVal{}, errors.New("customVal: bad A")
		}
		return customVal{A: int(a), B: string(b[n:])}, nil
	})
}

func decodeAll(t *testing.T, dec *BatchDecoder, frames [][]byte) (got []Message, closed bool) {
	t.Helper()
	for _, f := range frames {
		c, err := dec.DecodeBatch(f, func(m Message) { got = append(got, m) })
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		closed = closed || c
	}
	return got, closed
}

func mustEqualMessages(t *testing.T, got, want []Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("message %d mismatch:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}

func TestBatchRoundTripAllKindsAndValues(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Ack: 0, Net: "link", Source: "prod", Time: 10, Value: signal.Level(true)},
		{Kind: KindData, From: "ss1", Seq: 2, Ack: 1, Net: "link", Source: "prod", Time: 20, Value: signal.Word(0xdeadbeef)},
		{Kind: KindData, From: "ss1", Seq: 3, Ack: 1, Net: "link", Source: "prod", Time: 30, Value: signal.Byte(7)},
		{Kind: KindData, From: "ss1", Seq: 4, Ack: 2, Net: "dma", Source: "asic", Time: 40, Value: signal.Packet{1, 2, 3, 4, 5}},
		{Kind: KindData, From: "ss1", Seq: 5, Ack: 2, Net: "dma", Source: "asic", Time: 50,
			Value: signal.Frame{Src: "a", Dst: "b", Seq: 9, Payload: []byte("payload"), Last: true}},
		{Kind: KindData, From: "ss1", Seq: 6, Ack: 2, Net: "bus", Source: "cpu", Time: 60,
			Value: signal.BusCycle{Addr: 0x1000, Data: 42, Write: true}},
		{Kind: KindData, From: "ss1", Seq: 7, Ack: 3, Net: "ctl", Source: "ui", Time: 70,
			Value: signal.Control{Op: "load", Arg: -5}},
		{Kind: KindData, From: "ss1", Seq: 8, Ack: 3, Net: "irq", Source: "asic", Time: 80,
			Value: signal.IRQ{Line: 3, Cause: "dma-done"}},
		{Kind: KindData, From: "ss1", Seq: 9, Ack: 3, Net: "link", Source: "prod", Time: 90, Value: 123},
		{Kind: KindData, From: "ss1", Seq: 10, Ack: 3, Net: "link", Source: "prod", Time: 95, Value: nil},
		{Kind: KindSafeTimeReq, From: "ss1", Seq: 11, Ack: 4, Ask: 500},
		{Kind: KindSafeTimeGrant, From: "ss1", Seq: 12, Ack: 5, Grant: 400},
		{Kind: KindSafeTimeGrant, From: "ss1", Seq: 13, Ack: 5, Grant: vtime.Infinity},
		{Kind: KindMark, From: "ss1", Seq: 14, Ack: 5, Tag: "snap-1"},
		{Kind: KindRestore, From: "ss1", Seq: 15, Ack: 5, Tag: "snap-1"},
	}
	payload, n, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("consumed %d of %d", n, len(msgs))
	}
	got, closed := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if closed {
		t.Fatal("no close in batch, decoder says closed")
	}
	mustEqualMessages(t, got, msgs)
}

func TestBatchMixedSignalAndRegisteredValues(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Time: 1, Value: signal.Word(1)},
		{Kind: KindData, From: "ss1", Seq: 2, Net: "link", Source: "p", Time: 2, Value: customVal{A: 7, B: "reg"}},
		{Kind: KindData, From: "ss1", Seq: 3, Net: "link", Source: "p", Time: 3, Value: signal.Word(3)},
		{Kind: KindData, From: "ss1", Seq: 4, Net: "link", Source: "p", Time: 4, Value: customVal{A: 9, B: "again"}},
		{Kind: KindSafeTimeReq, From: "ss1", Seq: 5, Ask: 100},
	}
	payload, n, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(msgs) {
		t.Fatalf("consumed %d of %d", n, len(msgs))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	mustEqualMessages(t, got, msgs)
}

func TestBatchSplitsAtLimit(t *testing.T) {
	const count = 40
	msgs := make([]Message, count)
	for i := range msgs {
		msgs[i] = Message{Kind: KindData, From: "ss1", Seq: uint64(i + 1), Net: "link",
			Source: "prod", Time: vtime.Time(i), Value: signal.Word(uint32(i))}
	}
	const limit = 128
	var frames [][]byte
	rest := msgs
	for len(rest) > 0 {
		payload, n, err := AppendBatch(nil, rest, limit)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("AppendBatch consumed nothing")
		}
		if len(payload) > limit {
			t.Fatalf("frame of %d bytes exceeds limit %d with %d messages", len(payload), limit, n)
		}
		frames = append(frames, payload)
		rest = rest[n:]
	}
	if len(frames) < 2 {
		t.Fatalf("expected the batch to split, got %d frame(s)", len(frames))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), frames)
	mustEqualMessages(t, got, msgs)
}

func TestBatchOversizedSingleMessageStillEncodes(t *testing.T) {
	big := Message{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p",
		Value: make(signal.Packet, 300)}
	payload, n, err := AppendBatch(nil, []Message{big}, 128)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("consumed %d, want 1", n)
	}
	if len(payload) <= 128 {
		t.Fatalf("oversized message fit in %d bytes?", len(payload))
	}
	got, _ := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if len(got) != 1 || len(got[0].Value.(signal.Packet)) != 300 {
		t.Fatalf("round trip lost the payload: %+v", got)
	}
}

func TestBatchEmptyInputIsNoOp(t *testing.T) {
	payload, n, err := AppendBatch(nil, nil, 1<<20)
	if err != nil || n != 0 || len(payload) != 0 {
		t.Fatalf("empty AppendBatch: payload=%d n=%d err=%v", len(payload), n, err)
	}
}

func TestBatchCloseDetected(t *testing.T) {
	msgs := []Message{
		{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Value: signal.Word(1)},
		{Kind: KindClose, From: "ss1", Seq: 2},
	}
	payload, _, err := AppendBatch(nil, msgs, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got, closed := decodeAll(t, NewBatchDecoder(), [][]byte{payload})
	if !closed {
		t.Fatal("KindClose in batch not reported")
	}
	mustEqualMessages(t, got, msgs)
}

func TestBatchDecoderRejectsGarbage(t *testing.T) {
	dec := NewBatchDecoder()
	for _, payload := range [][]byte{
		{},                 // no count
		{0x01},             // count 1, no entry
		{0x01, 0x00},       // entry without length
		{0x01, 0x09},       // entry shorter than its length
		{0x01, 0x01, 0xff}, // unknown message kind 255
		{0x01, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63}, // unknown value tag 99
	} {
		if _, err := dec.DecodeBatch(payload, func(Message) {}); err == nil {
			t.Fatalf("payload %v decoded without error", payload)
		}
	}
}

func TestRegisterValueRejectsReservedAndDuplicateTags(t *testing.T) {
	enc := func(dst []byte, v unregisteredVal) []byte { return dst }
	dec := func([]byte) (unregisteredVal, error) { return unregisteredVal{}, nil }
	for name, tag := range map[string]byte{"reserved": valInt, "duplicate": MinValueTag} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s tag %d accepted", name, tag)
				}
			}()
			RegisterValue(tag, enc, dec)
		}()
	}
	if _, _, err := AppendBatch(nil, []Message{{Kind: KindData, Value: unregisteredVal{}}}, 1<<20); err == nil {
		t.Fatal("a refused registration left the type encodable")
	}
}

// TestUnencodableValueIsTyped: a value that is neither a signal type
// nor registered is refused with *UnencodableValueError — from
// AppendBatch directly, and on Endpoint.Err when a drive carries it.
func TestUnencodableValueIsTyped(t *testing.T) {
	bad := Message{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Value: unregisteredVal{X: 1}}
	_, n, err := AppendBatch(nil, []Message{bad}, 1<<20)
	var uerr *UnencodableValueError
	if !errors.As(err, &uerr) || n != 0 {
		t.Fatalf("AppendBatch: n=%d err=%v, want *UnencodableValueError", n, err)
	}
	if uerr.Net != "link" || uerr.Type != reflect.TypeOf(unregisteredVal{}) {
		t.Fatalf("error names net %q type %v", uerr.Net, uerr.Type)
	}

	// Behind an encodable message the bad one ends the batch; the next
	// call reports it.
	good := Message{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Value: signal.Word(1)}
	if _, n, err := AppendBatch(nil, []Message{good, bad}, 1<<20); err != nil || n != 1 {
		t.Fatalf("good then bad: n=%d err=%v, want 1 message and no error", n, err)
	}

	sub := core.NewSubsystem("ss1")
	ep, err := NewHub(sub).NewEndpoint("peer", Conservative, LinkModel{Latency: 5, PerMessage: 1}, &encodingTr{})
	if err != nil {
		t.Fatal(err)
	}
	ep.egress("link", core.Msg{Sent: 1, Value: unregisteredVal{X: 2}, Source: "prod"})
	uerr = nil
	if err := ep.Err(); !errors.As(err, &uerr) {
		t.Fatalf("Endpoint.Err() = %v, want *UnencodableValueError", err)
	}
}

// encodingTr encodes every batch the way a node connection does, and
// keeps nothing.
type encodingTr struct{ buf []byte }

func (e *encodingTr) SendBatch(msgs []Message) error {
	for len(msgs) > 0 {
		var n int
		var err error
		if e.buf, n, err = AppendBatch(e.buf[:0], msgs, 1<<20); err != nil {
			return err
		}
		msgs = msgs[n:]
	}
	return nil
}

func (e *encodingTr) Close() error { return nil }
