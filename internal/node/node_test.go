package node

import (
	"bytes"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// sender emits Count values on "out".
type sender struct {
	Next, Count int
	Period      vtime.Duration
}

func (s *sender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		s.Next++
	}
	return nil
}

func (s *sender) SaveState() ([]byte, error)  { return core.GobSave(s) }
func (s *sender) RestoreState(b []byte) error { return core.GobRestore(s, b) }

type receiver struct {
	Got []int
}

func (r *receiver) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
	}
}

func (r *receiver) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *receiver) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// buildRemotePair creates two nodes on loopback TCP with the logical
// net "link" split across them.
func buildRemotePair(t *testing.T, policy channel.Policy, count int) (n1, n2 *Node, s1, s2 *core.Subsystem, rcv *receiver) {
	t.Helper()
	return buildRemotePairVia(t, policy, count, nil)
}

// buildRemotePairVia is buildRemotePair with the dialing node
// connecting to via(addr) instead of the listener's own address, when
// via is set.
func buildRemotePairVia(t *testing.T, policy channel.Policy, count int, via func(addr string) string) (n1, n2 *Node, s1, s2 *core.Subsystem, rcv *receiver) {
	t.Helper()
	s1 = core.NewSubsystem("handheld")
	s2 = core.NewSubsystem("server")
	snd := &sender{Count: count, Period: 10}
	rcv = &receiver{}
	sc, _ := s1.NewComponent("prod", snd)
	sc.AddPort("out")
	rc, _ := s2.NewComponent("cons", rcv)
	rc.AddPort("in")
	l1, _ := s1.NewNet("link", 0)
	s1.Connect(l1, sc.Port("out"))
	l2, _ := s2.NewNet("link", 0)
	s2.Connect(l2, rc.Port("in"))

	n1 = New("node1")
	n2 = New("node2")
	n1.Host(s1)
	n2.Host(s2)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if via != nil {
		addr = via(addr)
	}
	link := channel.LinkModel{Latency: 5, PerMessage: 1}
	ep, err := n1.Connect("handheld", addr, "server", policy, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(l1, "link"); err != nil {
		t.Fatal(err)
	}
	// The server side's endpoint was created by the handshake.
	ep2 := n2.Hosted("server").Hub.Endpoint("handheld")
	if ep2 == nil {
		t.Fatal("server side endpoint missing after handshake")
	}
	if err := ep2.BindNet(l2, "link"); err != nil {
		t.Fatal(err)
	}
	n1.FinishAgents()
	n2.FinishAgents()
	return
}

func TestRemoteChannelDelivery(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 10)
	defer n1.Close()
	defer n2.Close()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(500) }()
	go func() { defer wg.Done(); e2 = s2.Run(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 10 {
		t.Fatalf("received %d over TCP, want 10", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken over TCP: %v", rcv.Got)
		}
	}
}

// TestRemoteCoalescedDelivery is the end-to-end check for message
// coalescing: batch frames actually cross a real TCP connection, the
// safe-time protocol still converges, and delivery stays in order.
func TestRemoteCoalescedDelivery(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 25)
	defer n1.Close()
	defer n2.Close()
	cfg := channel.CoalesceConfig{MaxMsgs: 8, MaxBytes: 32 << 10}
	n1.SetCoalescing(cfg)
	n2.SetCoalescing(cfg)
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(500) }()
	go func() { defer wg.Done(); e2 = s2.Run(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 25 {
		t.Fatalf("received %d over coalesced TCP, want 25", len(rcv.Got))
	}
	for i, v := range rcv.Got {
		if v != i {
			t.Fatalf("order broken over coalesced TCP: %v", rcv.Got)
		}
	}
	ep := n1.Hosted("handheld").Hub.Endpoint("server")
	if st := ep.Stats(); st.Flushes == 0 || st.FlushedMsgs == 0 {
		t.Fatalf("sender never batched: %+v", st)
	}
	ws := n1.WireStats()
	if st := ep.Stats(); ws.FramesOut >= st.FlushedMsgs {
		t.Fatalf("coalescing sent %d frames for %d messages — no batching on the wire",
			ws.FramesOut, st.FlushedMsgs)
	}
}

// tapRelay accepts one connection in front of addr and forwards it
// there, keeping a copy of the bytes each direction carried. The
// returned function waits for both directions to end and returns the
// copies.
func tapRelay(t *testing.T, addr string) (string, func() (up, down []byte)) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var up, down bytes.Buffer
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer ln.Close()
		in, err := ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", addr)
		if err != nil {
			in.Close()
			return
		}
		pipe := func(dst, src net.Conn, tap *bytes.Buffer) {
			defer wg.Done()
			io.Copy(io.MultiWriter(dst, tap), src)
			dst.Close()
			src.Close()
		}
		wg.Add(2)
		go pipe(out, in, &up)
		go pipe(in, out, &down)
	}()
	return ln.Addr().String(), func() ([]byte, []byte) {
		wg.Wait()
		return up.Bytes(), down.Bytes()
	}
}

// readWriteNopCloser serves a captured stream to wire.Conn.
type readWriteNopCloser struct{ io.Reader }

func (readWriteNopCloser) Write(p []byte) (int, error) { return len(p), nil }
func (readWriteNopCloser) Close() error                { return nil }

// frameKinds parses a captured stream into its frame kinds.
func frameKinds(t *testing.T, stream []byte) []byte {
	t.Helper()
	c := wire.NewConn(readWriteNopCloser{bytes.NewReader(stream)})
	var kinds []byte
	for {
		kind, _, err := c.RecvFrame()
		if err == io.EOF {
			return kinds
		}
		if err != nil {
			t.Fatalf("captured stream does not parse after %d frames: %v", len(kinds), err)
		}
		kinds = append(kinds, kind)
	}
}

// TestUncoalescedRemoteSendsOnlyBatchFrames: without coalescing every
// message still travels as a batch frame (a batch of one). Each
// direction opens with exactly one handshake frame, and no gob frame
// ever appears.
func TestUncoalescedRemoteSendsOnlyBatchFrames(t *testing.T) {
	var captured func() ([]byte, []byte)
	n1, n2, s1, s2, rcv := buildRemotePairVia(t, channel.Conservative, 10, func(addr string) string {
		relay, get := tapRelay(t, addr)
		captured = get
		return relay
	})
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = s1.Run(500) }()
	go func() { defer wg.Done(); e2 = s2.Run(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 10 {
		t.Fatalf("received %d, want 10", len(rcv.Got))
	}
	n1.Close()
	n2.Close()
	up, down := captured()
	for dir, stream := range map[string][]byte{"dialer->listener": up, "listener->dialer": down} {
		kinds := frameKinds(t, stream)
		if len(kinds) < 2 || kinds[0] != wire.FrameHello {
			t.Fatalf("%s: frames %v, want the handshake then batch frames", dir, kinds)
		}
		for i, k := range kinds[1:] {
			if k != wire.FrameBatch {
				t.Fatalf("%s: frame %d after the handshake has kind %d, want only batch frames", dir, i+1, k)
			}
		}
	}
}

// TestHandshakeRoundTrip: hello and ack survive their binary layout,
// and every truncation of a hello is refused rather than misread.
func TestHandshakeRoundTrip(t *testing.T) {
	h := hello{FromNode: "node1", FromSub: "handheld", ToSub: "server", Policy: uint8(channel.Optimistic),
		Link: channel.LinkModel{Latency: 300, BytesPerSecond: 1 << 20, PerMessage: -1}}
	var gotH hello
	f := fieldReader{b: h.appendTo(nil)}
	gotH.parse(&f)
	if f.err != nil || gotH != h {
		t.Fatalf("hello round trip: %+v err=%v, want %+v", gotH, f.err, h)
	}
	for _, a := range []helloAck{{OK: true}, {Error: "node x hosts no subsystem \"y\""}} {
		var got helloAck
		f := fieldReader{b: a.appendTo(nil)}
		got.parse(&f)
		if f.err != nil || got != a {
			t.Fatalf("ack round trip: %+v err=%v, want %+v", got, f.err, a)
		}
	}
	full := h.appendTo(nil)
	for n := 0; n < len(full); n++ {
		var got hello
		f := fieldReader{b: full[:n]}
		got.parse(&f)
		if f.err == nil {
			t.Fatalf("hello truncated to %d of %d bytes parsed as %+v", n, len(full), got)
		}
	}
}

func TestRemoteInfiniteRunTerminatesViaClose(t *testing.T) {
	n1, n2, s1, s2, rcv := buildRemotePair(t, channel.Conservative, 3)
	defer n1.Close()
	defer n2.Close()
	done2 := make(chan error, 1)
	go func() { done2 <- s2.Run(vtime.Infinity) }()
	if err := s1.Run(100); err != nil {
		t.Fatal(err)
	}
	if err := n1.CloseChannels(); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
	if len(rcv.Got) != 3 {
		t.Fatalf("received %v", rcv.Got)
	}
}

func TestConnectUnknownSubsystem(t *testing.T) {
	n2 := New("srv")
	s := core.NewSubsystem("real")
	n2.Host(s)
	addr, err := n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()

	n1 := New("cli")
	sl := core.NewSubsystem("local")
	n1.Host(sl)
	defer n1.Close()
	_, err = n1.Connect("local", addr, "ghost", channel.Conservative, channel.LinkModel{Latency: 1})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("expected rejection naming the missing subsystem, got %v", err)
	}
	if _, err := n1.Connect("nolocal", addr, "real", channel.Conservative, channel.LinkModel{Latency: 1}); err == nil {
		t.Fatal("connect from unhosted local subsystem accepted")
	}
}

func TestRunAll(t *testing.T) {
	n1, n2, _, _, rcv := buildRemotePair(t, channel.Conservative, 4)
	defer n1.Close()
	defer n2.Close()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = n1.RunAll(500) }()
	go func() { defer wg.Done(); e2 = n2.RunAll(500) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("RunAll: %v / %v", e1, e2)
	}
	if len(rcv.Got) != 4 {
		t.Fatalf("received %v", rcv.Got)
	}
}

func TestHostIdempotent(t *testing.T) {
	n := New("x")
	s := core.NewSubsystem("s")
	h1 := n.Host(s)
	h2 := n.Host(s)
	if h1 != h2 {
		t.Fatal("Host not idempotent")
	}
	if n.Hosted("s") != h1 || n.Hosted("nope") != nil {
		t.Fatal("Hosted lookup broken")
	}
	if n.Name() != "x" {
		t.Fatal("Name broken")
	}
}

func TestNodeCloseIdempotent(t *testing.T) {
	n := New("c")
	if _, err := n.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}
