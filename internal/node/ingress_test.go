package node

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// writeStream is a stream whose writes are captured and counted.
type writeStream struct {
	bytes.Buffer
	writes int
}

func (s *writeStream) Write(p []byte) (int, error) { s.writes++; return s.Buffer.Write(p) }
func (s *writeStream) Close() error                { return nil }

// frameStream encodes each element of frames as one batch frame
// (nil stands for a frame whose payload does not decode) and returns
// the stream a single Write put on the wire.
func frameStream(t *testing.T, frames [][]channel.Message) []byte {
	t.Helper()
	s := &writeStream{}
	eg := wire.NewConn(s).BeginEgress()
	defer eg.Close()
	for _, msgs := range frames {
		buf := eg.BeginFrame(wire.FrameBatch)
		if msgs == nil {
			buf = append(buf, 5, 0xff, 0xff)
		} else {
			var err error
			if buf, _, err = channel.AppendBatch(buf, msgs, wire.MaxFrame); err != nil {
				t.Fatal(err)
			}
		}
		if err := eg.EndFrame(buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := eg.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.writes != 1 {
		t.Fatalf("%d frames took %d writes, want one", len(frames), s.writes)
	}
	return s.Bytes()
}

// dataFrames returns count single-drive frames from "handheld" on
// "link", values 0..count-1 at increasing times, sequenced from 1.
func dataFrames(count int) [][]channel.Message {
	frames := make([][]channel.Message, count)
	for i := range frames {
		frames[i] = []channel.Message{{Kind: channel.KindData, From: "handheld", Seq: uint64(i + 1),
			Net: "link", Source: "prod", Time: vtime.Time(10 * (i + 1)), Value: i}}
	}
	return frames
}

// ingressServer hosts a receiver on a node and opens the endpoint the
// handshake would have created for a channel from "handheld", reading
// from stream. The caller drives the node's pump on the returned Conn.
func ingressServer(t *testing.T, stream []byte) (*Node, *Hosted, *channel.Endpoint, *wire.Conn, *receiver) {
	t.Helper()
	sub := core.NewSubsystem("server")
	rcv := &receiver{}
	rc, _ := sub.NewComponent("cons", rcv)
	rc.AddPort("in")
	l, _ := sub.NewNet("link", 0)
	sub.Connect(l, rc.Port("in"))
	n := New("node2")
	h := n.Host(sub)
	c := wire.NewConn(readWriteNopCloser{bytes.NewReader(stream)})
	ep, err := h.Hub.NewEndpoint("handheld", channel.Conservative, channel.LinkModel{Latency: 5, PerMessage: 1}, &connTransport{c: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(l, "link"); err != nil {
		t.Fatal(err)
	}
	return n, h, ep, c, rcv
}

// TestPumpMergesBufferedFrames: frames that arrive together reach
// the endpoint in as few injections as the pooled batch capacity
// allows — one per InjectBatchCap messages — and in FIFO order.
func TestPumpMergesBufferedFrames(t *testing.T) {
	const count = 150
	frames := append(dataFrames(count), []channel.Message{{Kind: channel.KindClose, From: "handheld", Seq: count + 1}})
	n, h, ep, c, rcv := ingressServer(t, frameStream(t, frames))
	defer n.Close()

	if err := n.pump(c, ep, h, nil); err != nil {
		t.Fatalf("pump: %v", err)
	}
	total := int64(count + 1)
	want := (total + channel.InjectBatchCap - 1) / channel.InjectBatchCap
	if got := ep.InjectionCount(); got != want || ep.QueuedCount() != total {
		t.Fatalf("%d messages in %d frames took %d injections, want %d (queued %d)",
			total, len(frames), got, want, ep.QueuedCount())
	}

	if err := h.Sub.Run(vtime.Infinity); err != nil {
		t.Fatal(err)
	}
	if err := ep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rcv.Got) != count {
		t.Fatalf("received %d drives, want %d", len(rcv.Got), count)
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("FIFO order broken at %d: %v", i, rcv.Got)
		}
	}
}

// TestPumpDeliversDecodedFramesBeforePeerLost: a broken frame behind
// good ones in the same read ends the pump with a typed
// *PeerLostError, but only after the good frames reached the
// endpoint.
func TestPumpDeliversDecodedFramesBeforePeerLost(t *testing.T) {
	const good = 3
	for name, stream := range map[string][]byte{
		"corrupt batch": frameStream(t, append(dataFrames(good), nil)),
		"foreign kind": append(frameStream(t, dataFrames(good)),
			0, 0, 0, 1, wire.FrameGob, 0),
	} {
		n, h, ep, c, _ := ingressServer(t, stream)
		err := n.pump(c, ep, h, nil)
		var pl *PeerLostError
		if !errors.As(err, &pl) {
			t.Fatalf("%s: pump returned %v, want a *PeerLostError", name, err)
		}
		if got := ep.QueuedCount(); got != good {
			t.Fatalf("%s: %d of the %d good messages reached the endpoint", name, got, good)
		}
		n.Close()
	}
}
