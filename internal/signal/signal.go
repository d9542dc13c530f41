// Package signal defines the value types that travel on Pia nets.
//
// Pia lets a single communication action be rendered at several levels
// of detail: the same logical transfer might appear as a sequence of
// bus cycles (Level changes and Words) at the hardware level, or as a
// single Packet at the packet level. The types here cover that range.
// The channel codec encodes every one of them natively, so they cross
// node boundaries unchanged, and all are gob-encodable for checkpoint
// and migration images.
package signal

import (
	"encoding/gob"
	"fmt"
)

// Level is a single digital signal level (a wire).
type Level bool

// Word is a four-byte bus word, the unit of the paper's "word passage"
// transfer mode.
type Word uint32

// Byte is a single byte, the unit of I2C-style transfers.
type Byte uint8

// Packet is a block of data sent as one unit — the paper's "packet
// passage" mode moved 1 KB packets.
type Packet []byte

// Frame is a packet with link-level addressing, used by the cellular
// link model in WubbleU.
type Frame struct {
	Src, Dst string
	Seq      uint32
	Payload  []byte
	Last     bool // final frame of a message
}

// IRQ is an interrupt request raised by hardware toward a processor
// component.
type IRQ struct {
	Line  int
	Cause string
}

// BusCycle is one cycle on a parallel bus at the hardware detail
// level.
type BusCycle struct {
	Addr  uint32
	Data  Word
	Write bool
}

// Control is a small out-of-band control token used by protocol
// implementations (start/stop/ack conditions).
type Control struct {
	Op  string
	Arg int64
}

// Size reports how many payload bytes a value represents; it is what
// the link models charge bandwidth for. Unknown types cost one byte.
func Size(v any) int {
	switch x := v.(type) {
	case nil:
		return 0
	case Level, Byte:
		return 1
	case Word:
		return 4
	case Packet:
		return len(x)
	case Frame:
		return len(x.Payload) + 12 // header modelled as 12 bytes
	case BusCycle:
		return 8
	case IRQ:
		return 2
	case Control:
		return 4
	case []byte:
		return len(x)
	case string:
		return len(x)
	default:
		return 1
	}
}

// String renders a value compactly for traces.
func String(v any) string {
	switch x := v.(type) {
	case Packet:
		return fmt.Sprintf("packet[%dB]", len(x))
	case Frame:
		return fmt.Sprintf("frame{%s->%s #%d %dB last=%v}", x.Src, x.Dst, x.Seq, len(x.Payload), x.Last)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Register registers every signal type with gob. Call it once in any
// process that gob-encodes values in interfaces (checkpoint and
// migration images); the node package does so automatically.
func Register() {
	gob.Register(Level(false))
	gob.Register(Word(0))
	gob.Register(Byte(0))
	gob.Register(Packet(nil))
	gob.Register(Frame{})
	gob.Register(IRQ{})
	gob.Register(BusCycle{})
	gob.Register(Control{})
}
