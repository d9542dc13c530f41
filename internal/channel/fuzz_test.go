package channel

import (
	"reflect"
	"testing"

	"repro/internal/signal"
	"repro/internal/vtime"
)

// fuzzMessage builds one message from fuzz primitives. Kinds cycle
// through the whole protocol; data values are a word, a packet, or
// (custom) a RegisterValue type. Empty byte payloads are normalised
// to nil because the decoder returns a zero-length slice as nil.
func fuzzMessage(kindSel uint8, custom bool, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) Message {
	kinds := []Kind{KindData, KindSafeTimeReq, KindSafeTimeGrant, KindMark, KindRestore, KindClose}
	m := Message{Kind: kinds[int(kindSel)%len(kinds)], From: from, Seq: seq, Ack: ack}
	switch m.Kind {
	case KindData:
		m.Net, m.Source, m.Time = name, from, vtime.Time(tick)
		switch {
		case custom:
			m.Value = customVal{A: int(int32(word)), B: tag}
		case len(pkt) == 0:
			m.Value = signal.Word(word)
		default:
			m.Value = signal.Packet(pkt)
		}
	case KindSafeTimeReq:
		m.Ask = vtime.Time(tick)
	case KindSafeTimeGrant:
		m.Grant = vtime.Time(tick)
	case KindMark, KindRestore:
		m.Tag = tag
	}
	return m
}

// FuzzBatchRoundTrip encodes fuzz-derived message batches and
// requires the decode to reproduce them exactly, with built-in signal
// values and RegisterValue values side by side in one batch. This
// covers what a hand-written table never exhausts: hostile strings,
// extreme times, empty payloads.
func FuzzBatchRoundTrip(f *testing.F) {
	f.Add(false, uint8(0), uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add(true, uint8(0), uint64(1), uint64(0), "ss1", "link", "snap", uint64(10), uint32(300), []byte{1, 2, 3})
	f.Add(false, uint8(5), uint64(9), uint64(9), "", "", "", ^uint64(0), uint32(0), []byte{})
	f.Add(true, uint8(4), uint64(0), uint64(1), "a\xffb", "n", "t\x00", uint64(1)<<62, uint32(1<<31), []byte(nil))

	f.Fuzz(func(t *testing.T, custom bool, kindSel uint8, seq, ack uint64, from, name, tag string, tick uint64, word uint32, pkt []byte) {
		msgs := []Message{
			fuzzMessage(kindSel, custom, seq, ack, from, name, tag, tick, word, pkt),
			fuzzMessage(kindSel+1, false, seq+1, ack, from, name, tag, tick/2, word+1, nil),
			fuzzMessage(kindSel+2, custom, seq+2, ack+1, name, from, tag, tick+1, word, pkt),
		}
		payload, n, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if n != len(msgs) {
			t.Fatalf("encode consumed %d of %d", n, len(msgs))
		}
		got, closed, err := NewBatchDecoder().DecodeBatchInto(payload, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		wantClosed := false
		for _, m := range msgs {
			wantClosed = wantClosed || m.Kind == KindClose
		}
		if closed != wantClosed {
			t.Fatalf("closed=%v, want %v", closed, wantClosed)
		}
		if len(got) != len(msgs) {
			t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
		}
		for i := range msgs {
			if !reflect.DeepEqual(got[i], msgs[i]) {
				t.Fatalf("message %d mismatch:\n got  %+v\n want %+v", i, got[i], msgs[i])
			}
		}
	})
}

// FuzzDecodeBatch throws arbitrary bytes at the batch decoder: it
// must error or succeed, never panic, and the callback and the
// into-buffer decoders must agree on what a payload contains.
func FuzzDecodeBatch(f *testing.F) {
	// Valid payloads as seeds, plus the garbage table.
	for _, msgs := range [][]Message{
		{{Kind: KindData, From: "ss1", Seq: 1, Net: "link", Source: "p", Time: 5, Value: signal.Word(1)}},
		{{Kind: KindSafeTimeReq, From: "ss1", Seq: 2, Ask: 100}, {Kind: KindClose, From: "ss1", Seq: 3}},
		{{Kind: KindData, From: "ss1", Seq: 4, Net: "dma", Source: "asic", Time: 9,
			Value: signal.Frame{Src: "a", Dst: "b", Seq: 1, Payload: []byte("xyz"), Last: true}}},
		{{Kind: KindData, From: "ss1", Seq: 5, Net: "dma", Source: "b", Time: 11, Value: customVal{A: -3, B: "url"}}},
	} {
		payload, _, err := AppendBatch(nil, msgs, 1<<20)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		// Truncations of a valid payload probe every partial-field path.
		f.Add(payload[:len(payload)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x09})
	f.Add([]byte{0x01, 0x01, 0xff})

	f.Fuzz(func(t *testing.T, payload []byte) {
		viaCb := 0
		_, errCb := NewBatchDecoder().DecodeBatch(payload, func(Message) { viaCb++ })
		msgs, _, errInto := NewBatchDecoder().DecodeBatchInto(payload, nil)
		if (errCb == nil) != (errInto == nil) {
			t.Fatalf("decoders disagree on validity: cb=%v into=%v", errCb, errInto)
		}
		if errCb == nil && viaCb != len(msgs) {
			t.Fatalf("decoders disagree on count: cb=%d into=%d", viaCb, len(msgs))
		}
	})
}
