package node

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/resilience"
	"repro/internal/vtime"
	"repro/internal/wire"
)

// tsender emits values on "out" with a fixed period.
type tsender struct {
	Next, Count int
	Period      vtime.Duration

	// onSend, when set, runs right after value i is sent: chaos tests
	// break connections at fixed points of the workload instead of
	// the wall clock. It is not checkpointed state and survives
	// restores.
	onSend func(i int)
}

func (s *tsender) Run(p *core.Proc) error {
	for s.Next < s.Count {
		p.Delay(s.Period)
		p.Send("out", s.Next)
		if s.onSend != nil {
			s.onSend(s.Next)
		}
		s.Next++
	}
	return nil
}

func (s *tsender) SaveState() ([]byte, error) { return core.GobSave(s) }

func (s *tsender) RestoreState(b []byte) error {
	hook := s.onSend
	err := core.GobRestore(s, b)
	s.onSend = hook
	return err
}

// trecv records every value with its virtual arrival time — the
// ground truth that fault-injected runs must reproduce exactly.
type trecv struct {
	Got   []int
	Times []vtime.Time
}

func (r *trecv) Run(p *core.Proc) error {
	for {
		m, ok := p.Recv("in")
		if !ok {
			return nil
		}
		r.Got = append(r.Got, m.Value.(int))
		r.Times = append(r.Times, m.Time)
	}
}

func (r *trecv) SaveState() ([]byte, error)  { return core.GobSave(r) }
func (r *trecv) RestoreState(b []byte) error { return core.GobRestore(r, b) }

// chaosPair is one two-node deployment of the sender/receiver
// workload, ready to run.
type chaosPair struct {
	n1, n2 *Node
	s1, s2 *core.Subsystem
	snd    *tsender
	rcv    *trecv
}

// buildChaosPair wires the workload across two nodes on loopback
// TCP. configure, when non-nil, arms faults/resilience on both nodes
// before any connection exists.
func buildChaosPair(t *testing.T, count int, period, latency vtime.Duration, configure func(n1, n2 *Node)) *chaosPair {
	t.Helper()
	p := &chaosPair{}
	p.s1 = core.NewSubsystem("handheld")
	p.s2 = core.NewSubsystem("server")
	p.snd = &tsender{Count: count, Period: period}
	p.rcv = &trecv{}
	sc, _ := p.s1.NewComponent("prod", p.snd)
	sc.AddPort("out")
	rc, _ := p.s2.NewComponent("cons", p.rcv)
	rc.AddPort("in")
	l1, _ := p.s1.NewNet("link", 0)
	p.s1.Connect(l1, sc.Port("out"))
	l2, _ := p.s2.NewNet("link", 0)
	p.s2.Connect(l2, rc.Port("in"))

	p.n1 = New("node1")
	p.n2 = New("node2")
	p.n1.Host(p.s1)
	p.n2.Host(p.s2)
	if configure != nil {
		configure(p.n1, p.n2)
	}
	addr, err := p.n2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	link := channel.LinkModel{Latency: latency, PerMessage: 1}
	ep, err := p.n1.Connect("handheld", addr, "server", channel.Conservative, link)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.BindNet(l1, "link"); err != nil {
		t.Fatal(err)
	}
	ep2 := p.n2.Hosted("server").Hub.Endpoint("handheld")
	if ep2 == nil {
		t.Fatal("server side endpoint missing after handshake")
	}
	if err := ep2.BindNet(l2, "link"); err != nil {
		t.Fatal(err)
	}
	p.n1.FinishAgents()
	p.n2.FinishAgents()
	t.Cleanup(func() { p.n1.Close(); p.n2.Close() })
	return p
}

// run drives both subsystems to the horizon.
func (p *chaosPair) run(t *testing.T, horizon vtime.Time) {
	t.Helper()
	var wg sync.WaitGroup
	var e1, e2 error
	wg.Add(2)
	go func() { defer wg.Done(); e1 = p.s1.Run(horizon) }()
	go func() { defer wg.Done(); e2 = p.s2.Run(horizon) }()
	wg.Wait()
	if e1 != nil || e2 != nil {
		t.Fatalf("runs: %v / %v", e1, e2)
	}
}

// assertSameResults compares a chaotic run's delivery against the
// clean reference: same values, same order, same virtual times.
func assertSameResults(t *testing.T, clean, chaotic *trecv) {
	t.Helper()
	if len(chaotic.Got) != len(clean.Got) {
		t.Fatalf("chaotic run delivered %d values, clean run %d", len(chaotic.Got), len(clean.Got))
	}
	for i := range clean.Got {
		if chaotic.Got[i] != clean.Got[i] {
			t.Fatalf("value %d diverged: chaotic %d, clean %d", i, chaotic.Got[i], clean.Got[i])
		}
		if chaotic.Times[i] != clean.Times[i] {
			t.Fatalf("virtual time of value %d diverged: chaotic %v, clean %v",
				i, chaotic.Times[i], clean.Times[i])
		}
	}
}

// TestResilientRemoteDelivery: the session layer under a healthy
// network is invisible — same results as the plain path.
func TestResilientRemoteDelivery(t *testing.T) {
	clean := buildChaosPair(t, 10, 10, 5, nil)
	clean.run(t, 500)

	resil := buildChaosPair(t, 10, 10, 5, func(n1, n2 *Node) {
		cfg := resilience.Config{Heartbeat: 20 * time.Millisecond}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
	})
	resil.run(t, 500)
	assertSameResults(t, clean.rcv, resil.rcv)
	st := resil.n1.ResilienceStats()
	if st.Resumes != 1 || st.EpochDeaths != 0 {
		t.Fatalf("healthy run session stats: %+v", st)
	}
}

// TestReconnectMidRun kills the TCP connection repeatedly mid-run;
// the session resumes each time and the simulation's drives and
// virtual times must match the uninterrupted run exactly.
func TestReconnectMidRun(t *testing.T) {
	clean := buildChaosPair(t, 40, 10, 5, nil)
	clean.run(t, 2000)
	if len(clean.rcv.Got) != 40 {
		t.Fatalf("clean run delivered %d", len(clean.rcv.Got))
	}

	chaos := buildChaosPair(t, 40, 10, 5, func(n1, n2 *Node) {
		cfg := resilience.Config{
			Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
			RetryBase: 2 * time.Millisecond, RetryMax: 50,
		}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
	})
	// The workload itself kills the connection at fixed sends, so no
	// run can finish before every kill: the sender needs a grant per
	// step, and each one after a kill arrives over a resumed
	// connection.
	chaos.snd.onSend = func(i int) {
		if i%10 == 5 {
			chaos.n1.BreakConns()
		}
	}
	chaos.run(t, 2000)
	assertSameResults(t, clean.rcv, chaos.rcv)
	st := chaos.n1.ResilienceStats()
	if st.EpochDeaths == 0 || st.Resumes < 2 {
		t.Fatalf("connection kills never exercised the resume path: %+v", st)
	}
}

// TestDeliveryUnderInjectedFaults runs the workload over faultnet
// links injecting drops, duplicates, reordering and corruption in
// both directions, with a scripted partition/heal cycle. Results
// must be identical to the clean run, and each link's live fault
// schedule must verify against its pure replay digest.
func TestDeliveryUnderInjectedFaults(t *testing.T) {
	clean := buildChaosPair(t, 30, 10, 5, nil)
	clean.run(t, 2000)

	chaos := buildChaosPair(t, 30, 10, 5, func(n1, n2 *Node) {
		fcfg := faultnet.Config{
			Seed:     7,
			DropProb: 0.03, DupProb: 0.02, ReorderProb: 0.02, CorruptProb: 0.02,
			Partitions: []faultnet.Partition{{AtFrame: 40, Heal: 30 * time.Millisecond}},
		}
		rcfg := resilience.Config{
			Heartbeat: 10 * time.Millisecond, HeartbeatMiss: 3,
			RetryBase: 2 * time.Millisecond, RetryMax: 200,
		}
		for _, n := range []*Node{n1, n2} {
			n.SetFaults(fcfg)
			n.SetResilience(rcfg)
		}
	})
	chaos.run(t, 2000)
	assertSameResults(t, clean.rcv, chaos.rcv)

	links := append(chaos.n1.FaultLinks(), chaos.n2.FaultLinks()...)
	if len(links) == 0 {
		t.Fatal("no fault links created")
	}
	injected := int64(0)
	for _, l := range links {
		if err := l.VerifyDigest(); err != nil {
			t.Fatalf("link %s: %v", l.Name(), err)
		}
		st := l.Stats()
		injected += st.Dropped + st.Duplicated + st.Reordered + st.Corrupted + st.Cuts
	}
	if injected == 0 {
		t.Fatalf("fault links injected nothing: %+v", chaos.n1.FaultStats())
	}
	if st := chaos.n1.ResilienceStats(); st.EpochDeaths == 0 {
		t.Fatalf("faults never exercised recovery: %+v", st)
	}
}

// TestSnapshotRewindAcrossReconnect forces the checkpoint-rewind
// recovery: retention holds one frame, a distributed snapshot
// completes before the sender's first step, then the workload kills
// the connection mid-run. The sender's next step emits two frames
// into the outage (its drive, then its ask for the next grant), so
// the first is evicted before the peer saw it and the resume must
// negotiate a rewind to the snapshot — and the restored run must
// still produce exactly the clean run's drives and virtual times.
func TestSnapshotRewindAcrossReconnect(t *testing.T) {
	clean := buildChaosPair(t, 120, 1, 200, nil)
	clean.run(t, 3000)
	if len(clean.rcv.Got) != 120 {
		t.Fatalf("clean run delivered %d", len(clean.rcv.Got))
	}

	chaos := buildChaosPair(t, 120, 1, 200, func(n1, n2 *Node) {
		cfg := resilience.Config{
			Heartbeat: 20 * time.Millisecond, HeartbeatMiss: 4,
			RetryBase: 5 * time.Millisecond, RetryMax: 100,
			RetentionFrames: 1,
		}
		n1.SetResilience(cfg)
		n2.SetResilience(cfg)
	})
	a1 := chaos.n1.Hosted("handheld").Agent
	a2 := chaos.n2.Hosted("server").Agent
	// The snapshot's marks travel ahead of the sender's first ask, so
	// both sides hold it before the first grant lets the sender step.
	tag := a1.Initiate()
	var broken sync.Once
	chaos.snd.onSend = func(i int) {
		if i != 10 {
			return
		}
		broken.Do(func() {
			if !a1.HasTag(tag) || !a2.HasTag(tag) {
				t.Errorf("snapshot %s incomplete at send %d", tag, i)
			}
			chaos.n1.BreakConns()
		})
	}
	chaos.run(t, 3000)
	assertSameResults(t, clean.rcv, chaos.rcv)
	if st := chaos.n1.ResilienceStats(); st.Rewinds == 0 {
		t.Fatalf("retention overflow did not force a rewind: %+v", st)
	}
}

// TestPeerLostTyped: a vanished peer surfaces as a *PeerLostError
// carrying the peer name, matchable via errors.Is(err, ErrPeerLost).
func TestPeerLostTyped(t *testing.T) {
	// Trace lines only wake the check below: the pump records its
	// error for ConnErr before it traces it.
	traced := make(chan struct{}, 1)
	p := buildChaosPair(t, 5, 10, 5, func(n1, n2 *Node) {
		n1.Tracer = func(string) {
			select {
			case traced <- struct{}{}:
			default:
			}
		}
	})
	// Sever the transport abruptly: close the server node's raw
	// connections without a channel Close handshake, then watch the
	// client pump fail. The server registers a connection before it
	// acknowledges the handshake, so it owns one by now.
	p.n2.mu.Lock()
	conns := append([]*wire.Conn(nil), p.n2.conns...)
	p.n2.mu.Unlock()
	if len(conns) != 1 {
		t.Fatalf("server owns %d connections after the handshake, want 1", len(conns))
	}
	conns[0].Close()
	deadline := time.After(5 * time.Second)
	for {
		err := p.n1.ConnErr()
		var lost *PeerLostError
		if errors.As(err, &lost) {
			if lost.Peer != "server" || !errors.Is(err, ErrPeerLost) {
				t.Fatalf("lost peer reported as %v", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("connection ended with %v, want *PeerLostError", err)
		}
		select {
		case <-traced:
		case <-deadline:
			t.Fatal("pump never reported the lost peer")
		}
	}
}
