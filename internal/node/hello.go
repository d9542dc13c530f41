package node

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/channel"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// The handshake travels in wire.FrameHello frames: the hello and its
// ack, each a fixed sequence of fields. Strings are a uvarint length
// and the bytes; numbers are varints.
//
//	hello:    FromNode, FromSub, ToSub, Policy, Link.Latency,
//	          Link.BytesPerSecond, Link.PerMessage
//	helloAck: OK (0 or 1), Error

// handshakeMsg is a hello or a helloAck.
type handshakeMsg interface {
	appendTo(b []byte) []byte
	parse(f *fieldReader)
}

// sendHandshake writes m as one FrameHello frame.
func sendHandshake(c *wire.Conn, m handshakeMsg) error {
	return c.SendRaw(wire.FrameHello, m.appendTo(nil))
}

// recvHandshake reads one FrameHello frame into m.
func recvHandshake(c *wire.Conn, m handshakeMsg) error {
	kind, payload, err := c.RecvFrame()
	if err != nil {
		return err
	}
	if kind != wire.FrameHello {
		return fmt.Errorf("node: expected a handshake frame, got kind %d", kind)
	}
	f := fieldReader{b: payload}
	m.parse(&f)
	return f.err
}

func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func (h *hello) appendTo(b []byte) []byte {
	b = appendField(b, h.FromNode)
	b = appendField(b, h.FromSub)
	b = appendField(b, h.ToSub)
	b = binary.AppendVarint(b, int64(h.Policy))
	b = binary.AppendVarint(b, int64(h.Link.Latency))
	b = binary.AppendVarint(b, h.Link.BytesPerSecond)
	return binary.AppendVarint(b, int64(h.Link.PerMessage))
}

func (h *hello) parse(f *fieldReader) {
	h.FromNode, h.FromSub, h.ToSub = f.str(), f.str(), f.str()
	h.Policy = uint8(f.varint())
	h.Link = channel.LinkModel{
		Latency:        vtime.Duration(f.varint()),
		BytesPerSecond: f.varint(),
		PerMessage:     vtime.Duration(f.varint()),
	}
}

func (a *helloAck) appendTo(b []byte) []byte {
	ok := int64(0)
	if a.OK {
		ok = 1
	}
	return appendField(binary.AppendVarint(b, ok), a.Error)
}

func (a *helloAck) parse(f *fieldReader) {
	a.OK = f.varint() == 1
	a.Error = f.str()
}

// fieldReader reads handshake fields in order; the first short read
// sets err and every later read returns a zero value.
type fieldReader struct {
	b   []byte
	err error
}

var errShortHandshake = errors.New("node: truncated handshake frame")

func (f *fieldReader) varint() int64 {
	v, n := binary.Varint(f.b)
	if n <= 0 {
		f.err, f.b = errShortHandshake, nil
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *fieldReader) str() string {
	n, k := binary.Uvarint(f.b)
	if k <= 0 || n > uint64(len(f.b)-k) {
		f.err, f.b = errShortHandshake, nil
		return ""
	}
	s := string(f.b[k : k+int(n)])
	f.b = f.b[k+int(n):]
	return s
}
