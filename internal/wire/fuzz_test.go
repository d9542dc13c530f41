package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"io"
	"testing"
)

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

// chunkReader cuts its source into reads whose sizes cycle through
// sizes (each byte is one read's length, 0 read as 1): the fuzzer
// chooses where buffer boundaries fall.
type chunkReader struct {
	r     io.Reader
	sizes []byte
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.sizes) > 0 {
		n := max(int(c.sizes[c.i%len(c.sizes)]), 1)
		c.i++
		p = p[:min(n, len(p))]
	}
	return c.r.Read(p)
}

// FuzzFrameParser feeds arbitrary byte streams to the frame reader,
// cut into reads at boundaries taken from the fuzz input. RecvFrame
// must never panic, never hand back a payload larger than the frame
// limit, and must terminate (every iteration either returns an error
// or consumes at least a header's worth of input). Where the reads
// fall must not change what is parsed: the chunked stream yields
// exactly the frames, and the same clean or failed end, as the whole
// stream read at once.
func FuzzFrameParser(f *testing.F) {
	// A one-entry batch in the channel layout: count 1, a fixed-width
	// entry length of 5, then a close message from "a".
	closeBatch := []byte{0x01, 0x85, 0x80, 0x80, 0x00, 5, 1, 0, 1, 'a'}
	// A channel connection's opening: a handshake frame (hello of
	// node "n" binding "a" to "b"), then a batch frame.
	hello := []byte{1, 'n', 1, 'a', 1, 'b', 0, 10, 0, 2}
	// A length prefix beyond MaxFrame.
	huge := frameBytes(99, nil)
	binary.BigEndian.PutUint32(huge[:4], MaxFrame+1)
	seeds := [][]byte{
		{},
		gobFrame(payload{N: 1, S: "read-time"}),
		frameBytes(FrameBatch, closeBatch),
		frameBytes(FrameBatch, []byte{1, 0, 9}),
		// A header declaring more payload than follows (truncated body).
		frameBytes(FrameBatch, bytes.Repeat([]byte{7}, 32))[:12],
		huge,
		append(frameBytes(FrameHello, hello), frameBytes(FrameBatch, closeBatch)...),
	}
	// Each seed read whole, then cut into reads of 1, 4 and 2 bytes.
	for _, seed := range seeds {
		f.Add(seed, []byte(nil))
	}
	for _, seed := range seeds {
		f.Add(seed, []byte{1, 4, 2})
	}

	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		whole, wholeErr := readAll(t, NewConn(rstream{bytes.NewReader(data)}))
		chunked, chunkedErr := readAll(t, NewConn(rstream{&chunkReader{r: bytes.NewReader(data), sizes: sizes}}))
		if !sameFrames(whole, chunked) {
			t.Fatalf("read boundaries changed the parse: %d frames whole, %d chunked", len(whole), len(chunked))
		}
		if (wholeErr == io.EOF) != (chunkedErr == io.EOF) {
			t.Fatalf("read boundaries changed the end: %v whole, %v chunked", wholeErr, chunkedErr)
		}
	})
}

// readAll reads frames until RecvFrame fails, checking each one, and
// returns them, payloads copied, with the error that ended the stream.
func readAll(t *testing.T, c *Conn) ([]frame, error) {
	var got []frame
	for {
		kind, payload, err := c.RecvFrame()
		if err != nil {
			return got, err
		}
		if len(payload) > MaxFrame {
			t.Fatalf("RecvFrame returned %d-byte payload past the limit", len(payload))
		}
		// Gob payloads must decode or error, never panic.
		if kind == FrameGob {
			var v any
			_ = decodeGob(payload, &v)
		}
		got = append(got, frame{kind, append([]byte(nil), payload...)})
	}
}
