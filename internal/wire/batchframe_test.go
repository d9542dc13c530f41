package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestMixedFrameKindsInterleave checks that gob frames and raw batch
// frames share one connection: each arrives with its own kind tag, in
// write order.
func TestMixedFrameKindsInterleave(t *testing.T) {
	a, b := pipePair()
	ca, cb := NewConn(a), NewConn(b)
	raw := []byte{0xca, 0xfe, 0xba, 0xbe}
	go func() {
		ca.Send(payload{N: 1, S: "gob"})
		ca.SendRaw(FrameBatch, raw)
		ca.Send(payload{N: 2, S: "gob2"})
	}()
	kind, _, err := cb.RecvFrame()
	if err != nil || kind != FrameGob {
		t.Fatalf("frame 1: kind=%d err=%v", kind, err)
	}
	kind, body, err := cb.RecvFrame()
	if err != nil || kind != FrameBatch || !bytes.Equal(body, raw) {
		t.Fatalf("frame 2: kind=%d body=%v err=%v", kind, body, err)
	}
	var got payload
	if err := cb.Recv(&got); err != nil || got.N != 2 {
		t.Fatalf("frame 3: %+v err=%v", got, err)
	}
	if st := cb.Stats(); st.FramesIn != 3 {
		t.Fatalf("frames in = %d, want 3", st.FramesIn)
	}
}

// TestRecvRejectsBatchFrame: the gob-only Recv must not silently
// misread a batch frame.
func TestRecvRejectsBatchFrame(t *testing.T) {
	a, b := pipePair()
	ca, cb := NewConn(a), NewConn(b)
	go ca.SendRaw(FrameBatch, []byte{1, 2, 3})
	var got payload
	if err := cb.Recv(&got); err == nil {
		t.Fatal("Recv accepted a batch frame")
	}
}

// TestConcurrentMixedSenders hammers one conn with gob and raw
// senders under the race detector: frames must never interleave
// mid-frame.
func TestConcurrentMixedSenders(t *testing.T) {
	a, b := pipePair()
	ca, cb := NewConn(a), NewConn(b)
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				var err error
				if s%2 == 0 {
					err = ca.Send(payload{N: s*1000 + i})
				} else {
					err = ca.SendRaw(FrameBatch, []byte(fmt.Sprintf("r%04d", s*1000+i)))
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	seen := make(map[string]bool)
	for i := 0; i < senders*per; i++ {
		kind, body, err := cb.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		var key string
		switch kind {
		case FrameGob:
			var got payload
			if err := decodeGob(body, &got); err != nil {
				t.Fatal(err)
			}
			key = fmt.Sprintf("g%04d", got.N)
		case FrameBatch:
			key = string(body)
		default:
			t.Fatalf("unknown kind %d", kind)
		}
		if seen[key] {
			t.Fatalf("duplicate frame %q (torn write?)", key)
		}
		seen[key] = true
	}
	wg.Wait()
}

// TestSendRawTooLarge: a payload beyond MaxFrame is refused before
// anything hits the stream.
func TestSendRawTooLarge(t *testing.T) {
	a, _ := pipePair()
	ca := NewConn(a)
	if err := ca.SendRaw(FrameBatch, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestBufPoolRoundTrip(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("pooled buffer not empty: len=%d", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf()
	if len(b2) != 0 {
		t.Fatalf("reused buffer not reset: len=%d", len(b2))
	}
	PutBuf(b2)
}
