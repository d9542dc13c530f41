package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"testing"
)

// memStream serves a fixed byte slice as the read side of a Conn and
// discards writes — the harness for parsing hostile input.
type memStream struct{ r *bytes.Reader }

func (m memStream) Read(p []byte) (int, error)  { return m.r.Read(p) }
func (m memStream) Write(p []byte) (int, error) { return len(p), nil }
func (m memStream) Close() error                { return nil }

// frameBytes assembles a well-formed frame for seeding the corpus.
func frameBytes(kind byte, payload []byte) []byte {
	buf := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf[4] = kind
	copy(buf[headerLen:], payload)
	return buf
}

// gobFrame assembles a well-formed FrameGob frame carrying v, the
// shape of one hwstub request.
func gobFrame(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return frameBytes(FrameGob, buf.Bytes())
}

// FuzzFrameParser feeds arbitrary byte streams to the frame reader.
// RecvFrame must never panic, never hand back a payload larger than
// the frame limit, and must terminate (every iteration either returns
// an error or consumes at least a header's worth of input).
func FuzzFrameParser(f *testing.F) {
	// A one-entry batch in the channel layout: count 1, a fixed-width
	// entry length of 5, then a close message from "a".
	closeBatch := []byte{0x01, 0x85, 0x80, 0x80, 0x00, 5, 1, 0, 1, 'a'}
	f.Add([]byte{})
	f.Add(gobFrame(payload{N: 1, S: "read-time"}))
	f.Add(frameBytes(FrameBatch, closeBatch))
	f.Add(frameBytes(FrameBatch, []byte{1, 0, 9}))
	// A header declaring more payload than follows (truncated body).
	f.Add(frameBytes(FrameBatch, bytes.Repeat([]byte{7}, 32))[:12])
	// A length prefix beyond MaxFrame.
	huge := frameBytes(99, nil)
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	f.Add(huge)
	// A channel connection's opening: a handshake frame (hello of
	// node "n" binding "a" to "b"), then a batch frame.
	hello := []byte{1, 'n', 1, 'a', 1, 'b', 0, 10, 0, 2}
	f.Add(append(frameBytes(FrameHello, hello), frameBytes(FrameBatch, closeBatch)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewConn(memStream{bytes.NewReader(data)})
		for {
			kind, payload, err := c.RecvFrame()
			if err != nil {
				return
			}
			if len(payload) > MaxFrame {
				t.Fatalf("RecvFrame returned %d-byte payload past the limit", len(payload))
			}
			// Gob payloads must decode or error, never panic.
			if kind == FrameGob {
				var v any
				_ = decodeGob(payload, &v)
			}
		}
	})
}
