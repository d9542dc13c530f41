package wubbleu

import (
	"encoding/gob"

	"repro/internal/channel"
)

// Message types exchanged between the WubbleU modules. They are gob
// registered so checkpoints and migration images can carry them.
// NetReq is also registered with the channel codec: it is the one
// module message that crosses a node, on the browser -> ASIC dma net
// of RemotePlacement.

// Strokes is handwriting input from the UI to the recognizer.
type Strokes struct {
	URL string // the text the strokes encode (recognition is modelled)
}

// URLReq is the recognized request from the recognizer to the
// browser control.
type URLReq struct {
	URL string
}

// CacheReq is a browser request to the cache module.
type CacheReq struct {
	Op   string // "get" or "put"
	Key  string
	Data []byte
}

// CacheResp answers a "get".
type CacheResp struct {
	Key  string
	Hit  bool
	Data []byte
}

// DecodeReq asks the JPEG decoder to decode one image.
type DecodeReq struct {
	ID   int
	Size int
}

// DecodeResp announces a finished decode.
type DecodeResp struct {
	ID int
}

// NetReq asks the network interface (the cellular ASIC) to fetch a
// URL.
type NetReq struct {
	URL string
}

// Rendered tells the UI a page finished rendering.
type Rendered struct {
	URL   string
	Bytes int
}

func init() {
	gob.Register(Strokes{})
	gob.Register(URLReq{})
	gob.Register(CacheReq{})
	gob.Register(CacheResp{})
	gob.Register(DecodeReq{})
	gob.Register(DecodeResp{})
	gob.Register(NetReq{})
	gob.Register(Rendered{})

	channel.RegisterValue(netReqTag,
		func(dst []byte, v NetReq) []byte { return append(dst, v.URL...) },
		func(b []byte) (NetReq, error) { return NetReq{URL: string(b)}, nil })
}

// netReqTag is NetReq's channel value tag.
const netReqTag = channel.MinValueTag
