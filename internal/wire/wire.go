// Package wire implements the framing Pia nodes speak over TCP:
// length-prefixed, kind-tagged frames. Each frame is a 4-byte
// big-endian payload length, a 1-byte frame kind, and the payload.
// FrameBatch carries every channel message, in the binary batch
// format of internal/channel; FrameHello carries the two frames of the
// node handshake that open a channel connection. FrameGob carries a
// single gob-encoded value for the hwstub request protocol, never
// simulation data. The length prefix keeps the stream
// self-describing, lets both sides count bytes, and makes partial
// reads detectable.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

// MaxFrame bounds a single frame; anything larger is a protocol
// error, not a legitimate simulation message.
const MaxFrame = 64 << 20

// Frame kinds.
const (
	// FrameGob is a single gob-encoded value (hwstub requests).
	FrameGob byte = 0
	// FrameBatch is a batch of channel messages in the binary batch
	// format (see internal/channel).
	FrameBatch byte = 1
	// FrameHello is one frame of the node handshake (see
	// internal/node).
	FrameHello byte = 2
)

// readBufSize is the size of a Conn's receive buffer: large enough
// that a burst of small channel frames arrives in one read syscall,
// small enough that a connection's set-up cost stays flat.
const readBufSize = 16 << 10

// Conn frames values over a byte stream. Send, SendRaw and
// BeginEgress are safe for concurrent use; Recv, RecvFrame and
// FrameBuffered must be called from a single reader.
type Conn struct {
	rwc io.ReadWriteCloser

	wmu    sync.Mutex
	wbuf   bytes.Buffer
	ebuf   []byte // egress assembly buffer, recycled across flushes
	egress Egress // the Conn's single egress builder, guarded by wmu

	br   *bufio.Reader   // every read of the stream goes through it
	hdr  [headerLen]byte // header of the frame being read
	rbuf []byte          // frame payload, reused across frames

	bytesIn   atomic.Int64
	bytesOut  atomic.Int64
	framesIn  atomic.Int64
	framesOut atomic.Int64
}

// NewConn wraps a stream (usually a *net.TCPConn).
func NewConn(rwc io.ReadWriteCloser) *Conn {
	return &Conn{rwc: rwc, br: bufio.NewReaderSize(rwc, readBufSize)}
}

// headerLen is the frame overhead: 4-byte length + 1-byte kind.
const headerLen = 5

// Send writes one FrameGob frame containing v.
func (c *Conn) Send(v any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.Reset()
	if err := gob.NewEncoder(&c.wbuf).Encode(v); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	return c.writeFrameLocked(FrameGob, c.wbuf.Bytes())
}

// SendRaw writes one frame of the given kind with an already-encoded
// payload. The payload is copied to the stream before SendRaw
// returns, so the caller may reuse its buffer.
func (c *Conn) SendRaw(kind byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeFrameLocked(kind, payload)
}

func (c *Conn) writeFrameLocked(kind byte, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame of %d bytes exceeds limit", len(payload))
	}
	// Assemble header + payload contiguously and flush with a single
	// Write: one syscall per frame, and exactly one envelope when the
	// stream is a resilient session (which frames every Write it
	// sees). The counters record precisely what was handed to the
	// stream, on every path.
	buf := append(c.ebuf[:0], 0, 0, 0, 0, kind)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	buf = append(buf, payload...)
	n, err := c.rwc.Write(buf)
	c.retainEbuf(buf)
	c.bytesOut.Add(int64(n))
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	c.framesOut.Add(1)
	return nil
}

// retainEbuf keeps the egress assembly buffer for the next flush,
// unless it has grown pathological.
func (c *Conn) retainEbuf(buf []byte) {
	if cap(buf) <= MaxFrame {
		c.ebuf = buf[:0]
	}
}

// RecvFrame reads one frame and returns its kind and payload. The
// payload slice is owned by the Conn and only valid until the next
// RecvFrame or Recv call; decode it before reading again.
//
// Reads go through the Conn's buffer, so a burst of small frames
// costs one read syscall, not two per frame. On any error the buffer
// is reset: bytes of a partial frame from a dead stream, or from a
// session rewound underneath, are never parsed as the start of the
// next frame.
func (c *Conn) RecvFrame() (kind byte, payload []byte, err error) {
	kind, payload, err = c.readFrame()
	if err != nil {
		c.br.Reset(c.rwc)
	}
	return kind, payload, err
}

func (c *Conn) readFrame() (kind byte, payload []byte, err error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: incoming frame of %d bytes exceeds limit", n)
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	c.rbuf = c.rbuf[:n]
	if _, err := io.ReadFull(c.br, c.rbuf); err != nil {
		return 0, nil, fmt.Errorf("wire: read body: %w", err)
	}
	c.bytesIn.Add(int64(headerLen + n))
	c.framesIn.Add(1)
	return c.hdr[4], c.rbuf, nil
}

// FrameBuffered reports whether a whole frame already sits in the
// receive buffer, so the next RecvFrame returns it without touching
// the stream.
func (c *Conn) FrameBuffered() bool {
	buffered := c.br.Buffered()
	if buffered < headerLen {
		return false
	}
	hdr, _ := c.br.Peek(headerLen) // cannot fail: that much is buffered
	return uint64(buffered-headerLen) >= uint64(binary.BigEndian.Uint32(hdr))
}

// Recv reads one FrameGob frame into v. It fails on any other frame
// kind; readers that must handle batch frames use RecvFrame.
func (c *Conn) Recv(v any) error {
	kind, payload, err := c.RecvFrame()
	if err != nil {
		return err
	}
	if kind != FrameGob {
		return fmt.Errorf("wire: expected gob frame, got kind %d", kind)
	}
	return decodeGob(payload, v)
}

// decodeGob decodes a FrameGob payload into v.
func decodeGob(payload []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("wire: decode: %w", err)
	}
	return nil
}

// bufPool recycles scratch buffers for callers assembling frame
// payloads, so steady-state sends allocate nothing.
var bufPool = sync.Pool{New: func() any { return make([]byte, 0, 4<<10) }}

// GetBuf returns a scratch byte slice (length 0) from the pool.
func GetBuf() []byte { return bufPool.Get().([]byte)[:0] }

// PutBuf returns a scratch buffer to the pool.
func PutBuf(b []byte) {
	if cap(b) > MaxFrame {
		return // do not retain pathological buffers
	}
	bufPool.Put(b[:0]) //nolint:staticcheck // slices are pointer-shaped
}

// Egress is a multi-frame egress builder: callers encode frame
// payloads directly into the connection's recycled assembly buffer —
// no intermediate per-frame slice — and Flush hands the whole run of
// frames to the stream in a single Write (the writev-style batched
// flush). Obtain one with BeginEgress; it holds the connection's
// write lock until Close.
type Egress struct {
	c      *Conn
	buf    []byte
	hdr    int // offset of the open frame's header, -1 when none
	frames int
	err    error
}

// BeginEgress locks the connection for writing and returns its egress
// builder (no allocation: the builder is part of the Conn). The
// caller must call Close exactly once, typically via defer; Flush
// before Close to actually send.
func (c *Conn) BeginEgress() *Egress {
	c.wmu.Lock()
	e := &c.egress
	e.c = c
	e.buf = c.ebuf[:0]
	e.hdr = -1
	e.frames = 0
	e.err = nil
	return e
}

// BeginFrame opens a frame of the given kind and returns the buffer
// to append the payload to. The caller encodes in place and hands the
// grown buffer to EndFrame.
func (e *Egress) BeginFrame(kind byte) []byte {
	if e.hdr >= 0 {
		e.err = fmt.Errorf("wire: BeginFrame with a frame already open")
		return e.buf
	}
	e.hdr = len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0, kind)
	return e.buf
}

// EndFrame seals the frame whose payload was appended to buf (the
// slice returned by BeginFrame, possibly reallocated by appends) by
// patching the length prefix in place.
func (e *Egress) EndFrame(buf []byte) error {
	if e.err != nil {
		return e.err
	}
	if e.hdr < 0 {
		e.err = fmt.Errorf("wire: EndFrame without BeginFrame")
		return e.err
	}
	e.buf = buf
	payload := len(buf) - e.hdr - headerLen
	if payload < 0 {
		e.err = fmt.Errorf("wire: EndFrame buffer shorter than its header")
		return e.err
	}
	if payload > MaxFrame {
		e.err = fmt.Errorf("wire: frame of %d bytes exceeds limit", payload)
		return e.err
	}
	binary.BigEndian.PutUint32(buf[e.hdr:e.hdr+4], uint32(payload))
	e.hdr = -1
	e.frames++
	return nil
}

// Flush writes every sealed frame with one Write call and resets the
// builder for further frames. Byte and frame counters record what was
// actually handed to the stream.
func (e *Egress) Flush() error {
	if e.err != nil {
		return e.err
	}
	if e.hdr >= 0 {
		e.err = fmt.Errorf("wire: Flush with an unsealed frame")
		return e.err
	}
	if len(e.buf) == 0 {
		return nil
	}
	n, err := e.c.rwc.Write(e.buf)
	e.c.bytesOut.Add(int64(n))
	if err != nil {
		e.err = fmt.Errorf("wire: write frames: %w", err)
		return e.err
	}
	e.c.framesOut.Add(int64(e.frames))
	e.frames = 0
	e.buf = e.buf[:0]
	return nil
}

// Close releases the connection's write lock and recycles the
// assembly buffer. Unflushed frames are dropped (an abort).
func (e *Egress) Close() {
	c := e.c
	c.retainEbuf(e.buf)
	e.buf = nil
	e.c = nil
	c.wmu.Unlock()
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rwc.Close() }

// Stats is a snapshot of one connection's framing counters. Totals
// include the frame headers; FramesOut is the coalescing ablation's
// figure of merit (fewer frames for the same drives).
type Stats struct {
	BytesIn, BytesOut   int64
	FramesIn, FramesOut int64
}

// Add accumulates o into s, for callers summing several connections.
func (s *Stats) Add(o Stats) {
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.FramesIn += o.FramesIn
	s.FramesOut += o.FramesOut
}

// Stats returns a snapshot of the connection's counters (atomic
// loads; safe concurrently with traffic).
func (c *Conn) Stats() Stats {
	return Stats{
		BytesIn:   c.bytesIn.Load(),
		BytesOut:  c.bytesOut.Load(),
		FramesIn:  c.framesIn.Load(),
		FramesOut: c.framesOut.Load(),
	}
}

// Dial connects to a Pia node.
func Dial(addr string) (*Conn, error) {
	tc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if t, ok := tc.(*net.TCPConn); ok {
		t.SetNoDelay(true)
	}
	return NewConn(tc), nil
}
