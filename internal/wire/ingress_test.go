package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// frame is one parsed frame, its payload copied out of the Conn.
type frame struct {
	kind    byte
	payload []byte
}

func sameFrames(a, b []frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].kind != b[i].kind || !bytes.Equal(a[i].payload, b[i].payload) {
			return false
		}
	}
	return true
}

// rstream is the read side of a Conn over any io.Reader; writes are
// discarded.
type rstream struct{ io.Reader }

func (rstream) Write(p []byte) (int, error) { return len(p), nil }
func (rstream) Close() error                { return nil }

// chunkStream serves one scripted chunk per Read, then err (io.EOF
// when nil) once the chunks run out, then any further chunks queued
// behind it: a stream that fails mid-frame and restarts, the shape a
// rewound resilient session presents.
type chunkStream struct {
	chunks [][]byte
	errs   []error // errs[i] is returned after chunks[i] is consumed, if non-nil
}

func (s *chunkStream) Read(p []byte) (int, error) {
	if len(s.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.chunks[0])
	s.chunks[0] = s.chunks[0][n:]
	if len(s.chunks[0]) > 0 {
		return n, nil
	}
	s.chunks = s.chunks[1:]
	err := s.errs[0]
	s.errs = s.errs[1:]
	return n, err
}

func (s *chunkStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *chunkStream) Close() error                { return nil }

// testStream is a run of frames of mixed kinds and sizes, one larger
// than the receive buffer so its body bypasses the buffer.
func testStream() ([]frame, []byte) {
	frames := []frame{
		{FrameHello, []byte("hello")},
		{FrameBatch, bytes.Repeat([]byte{1}, 40)},
		{FrameBatch, nil},
		{FrameBatch, bytes.Repeat([]byte{2}, readBufSize+1000)},
		{FrameGob, bytes.Repeat([]byte{3}, 7)},
		{FrameBatch, bytes.Repeat([]byte{4}, readBufSize-headerLen)},
		{FrameBatch, []byte{5}},
	}
	var stream []byte
	for _, f := range frames {
		stream = append(stream, frameBytes(f.kind, f.payload)...)
	}
	return frames, stream
}

// TestRecvFrameChunkingInvariant checks that how the stream is cut
// into reads never changes what is parsed: one byte per read, half
// of each request per read, and everything in one read all yield the
// frames as written.
func TestRecvFrameChunkingInvariant(t *testing.T) {
	want, stream := testStream()
	for name, r := range map[string]io.Reader{
		"one-write": bytes.NewReader(stream),
		"one-byte":  iotest.OneByteReader(bytes.NewReader(stream)),
		"half":      iotest.HalfReader(bytes.NewReader(stream)),
	} {
		c := NewConn(rstream{r})
		got, err := readAll(t, c)
		if err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want EOF", name, err)
		}
		if !sameFrames(got, want) {
			t.Fatalf("%s: parsed %d frames differing from the %d written", name, len(got), len(want))
		}
		if st := c.Stats(); st.FramesIn != int64(len(want)) || st.BytesIn != int64(len(stream)) {
			t.Fatalf("%s: stats %+v, want %d frames, %d bytes", name, st, len(want), len(stream))
		}
	}
}

// TestRecvFrameDiscardsPartialFrameAfterError is the rewind case: a
// stream delivers one frame and part of the next, then fails; what
// follows is a fresh stream. Only the fresh stream's frames may be
// parsed after the error — also when the error is the parser's own,
// a length prefix past the limit with the rest of its read still
// buffered behind it.
func TestRecvFrameDiscardsPartialFrameAfterError(t *testing.T) {
	a := frameBytes(FrameBatch, []byte("first"))
	partial := frameBytes(FrameBatch, bytes.Repeat([]byte{9}, 64))
	oversized := frameBytes(FrameBatch, bytes.Repeat([]byte{9}, 64))
	binary.BigEndian.PutUint32(oversized[:4], MaxFrame+1)
	fresh := append(frameBytes(FrameBatch, []byte("fresh-1")), frameBytes(FrameBatch, []byte("fresh-2"))...)
	rewound := errors.New("stream rewound")
	for _, tc := range []struct {
		name string
		tail []byte // what follows frame a before the stream fails
	}{
		{"partial header", partial[:3]},
		{"header only", partial[:headerLen]},
		{"partial body", partial[:headerLen+10]},
		{"oversized frame", oversized},
	} {
		s := &chunkStream{
			chunks: [][]byte{append(append([]byte(nil), a...), tc.tail...), fresh},
			errs:   []error{rewound, nil},
		}
		c := NewConn(s)
		kind, payload, err := c.RecvFrame()
		if err != nil || kind != FrameBatch || string(payload) != "first" {
			t.Fatalf("%s: first frame: kind=%d payload=%q err=%v", tc.name, kind, payload, err)
		}
		if _, _, err := c.RecvFrame(); err == nil {
			t.Fatalf("%s: the broken frame parsed", tc.name)
		}
		got, err := readAll(t, c)
		want := []frame{{FrameBatch, []byte("fresh-1")}, {FrameBatch, []byte("fresh-2")}}
		if err != io.EOF || !sameFrames(got, want) {
			t.Fatalf("%s: after the error parsed %v (end %v), want only the fresh frames", tc.name, got, err)
		}
	}
}

// TestFrameBuffered checks that FrameBuffered reports a frame only
// once all of it sits in the receive buffer: never on a partial
// header or a partial body.
func TestFrameBuffered(t *testing.T) {
	a := frameBytes(FrameBatch, []byte("aa"))
	b := frameBytes(FrameBatch, []byte("bbbbbbbb"))
	for _, tc := range []struct {
		name string
		tail []byte // what follows frame a in the same read
		want bool
	}{
		{"nothing", nil, false},
		{"partial header", b[:3], false},
		{"header only", b[:headerLen], false},
		{"partial body", b[:len(b)-1], false},
		{"whole frame", b, true},
	} {
		s := &chunkStream{chunks: [][]byte{append(append([]byte(nil), a...), tc.tail...)}, errs: []error{nil}}
		c := NewConn(s)
		if c.FrameBuffered() {
			t.Fatalf("%s: frame reported buffered before any read", tc.name)
		}
		if _, _, err := c.RecvFrame(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := c.FrameBuffered(); got != tc.want {
			t.Fatalf("%s: FrameBuffered = %v, want %v", tc.name, got, tc.want)
		}
		if tc.want {
			if kind, payload, err := c.RecvFrame(); err != nil || kind != FrameBatch || string(payload) != "bbbbbbbb" {
				t.Fatalf("%s: buffered frame: kind=%d payload=%q err=%v", tc.name, kind, payload, err)
			}
		}
	}
}

// loopStream serves the same bytes forever without allocating.
type loopStream struct {
	data []byte
	off  int
}

func (s *loopStream) Read(p []byte) (int, error) {
	n := copy(p, s.data[s.off:])
	s.off = (s.off + n) % len(s.data)
	return n, nil
}

func (s *loopStream) Write(p []byte) (int, error) { return len(p), nil }
func (s *loopStream) Close() error                { return nil }

// TestRecvFrameZeroAlloc guards the receive hot path: once the
// payload buffer has grown to the frame size, reading a frame
// allocates nothing.
func TestRecvFrameZeroAlloc(t *testing.T) {
	c := NewConn(&loopStream{data: frameBytes(FrameBatch, bytes.Repeat([]byte{7}, 61))})
	if _, _, err := c.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, err := c.RecvFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("RecvFrame allocates %.1f times per frame, want 0", allocs)
	}
}
