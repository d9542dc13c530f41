package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	pia "repro"
	"repro/internal/proto"
	"repro/internal/service"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// costTopN is the cost-attribution ranking size used on traced runs.
const costTopN = 8

// workload is one closed-loop traffic mix.
type workload interface {
	// inputs says what the seed changes, for the run record.
	inputs() string
	// setUp prepares everything before the first timed operation and
	// appends one setup_s sample per timed set-up to ph.setup.
	setUp(ph *phase) error
	// measure runs operations until the deadline, recording into ph.
	measure(ph *phase, deadline time.Time)
	// headline is the timing the traced run compares against the
	// untraced one to report its own overhead.
	headline(ph *phase) float64
	close()
}

func workloadNames() []string {
	return []string{"remote-word", "remote-word-coalesced", "sessions"}
}

func newWorkload(c config) (workload, error) {
	switch c.workload {
	case "remote-word":
		return newTable1(c, false), nil
	case "remote-word-coalesced":
		return newTable1(c, true), nil
	case "sessions":
		return newSessions(c), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", c.workload, strings.Join(workloadNames(), ", "))
}

// phase accumulates one measured stretch of operations.
type phase struct {
	traced     bool
	ops        int // operations that ended, well or not
	ok         int // operations whose simulation completed
	failed     int // operations that returned an error or a wrong output
	firstErr   error
	setup      []float64            // set-up seconds
	load       []float64            // simulated-to-completion seconds per operation
	step       []float64            // seconds per call that advances virtual time
	spans      map[string][]float64 // traced: seconds per public call, by span name
	count      map[string]float64   // traced: layer counters summed over operations
	livePeak   int
	wall       float64
	allocBytes float64
	asideWall  float64 // seconds spent on work kept out of wall
	asideAlloc float64 // heap bytes allocated by that work
}

func newPhase(traced bool) *phase {
	return &phase{traced: traced, spans: map[string][]float64{}, count: map[string]float64{}}
}

// end closes one operation: completed says its simulation ran to the
// end, err is its first error or output mismatch.
func (ph *phase) end(completed bool, err error) {
	ph.ops++
	if completed {
		ph.ok++
	}
	if err != nil {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = err
		}
	}
}

func (ph *phase) span(name string, t0 time.Time) {
	if ph.traced {
		ph.spans[name] = append(ph.spans[name], secs(time.Since(t0)))
	}
}

// merge folds another phase's operations into ph.
func (ph *phase) merge(o *phase) {
	ph.ops += o.ops
	ph.ok += o.ok
	ph.failed += o.failed
	if ph.firstErr == nil {
		ph.firstErr = o.firstErr
	}
	ph.setup = append(ph.setup, o.setup...)
	ph.load = append(ph.load, o.load...)
	ph.step = append(ph.step, o.step...)
	for k, v := range o.spans {
		ph.spans[k] = append(ph.spans[k], v...)
	}
	for k, v := range o.count {
		ph.count[k] += v
	}
	if o.livePeak > ph.livePeak {
		ph.livePeak = o.livePeak
	}
}

// measure runs w for the given seconds and records the phase's wall
// time and heap allocation.
func measure(w workload, seconds float64, traced bool) *phase {
	ph := newPhase(traced)
	// Every phase starts from a collected heap, so the previous
	// phase's garbage is not charged to this one.
	runtime.GC()
	a0 := heapAllocBytes()
	start := time.Now()
	w.measure(ph, start.Add(time.Duration(seconds*float64(time.Second))))
	ph.wall = secs(time.Since(start)) - ph.asideWall
	ph.allocBytes = float64(heapAllocBytes()-a0) - ph.asideAlloc
	return ph
}

func heapAllocBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// sumCounters adds the registry counters named in keys (by base name,
// over every label set) into dst under the mapped keys.
func sumCounters(dst map[string]float64, snap []pia.MetricSample, keys map[string]string) {
	for _, s := range snap {
		base, _, _ := strings.Cut(s.Name, "{")
		if k, ok := keys[base]; ok {
			dst[k] += float64(s.Value)
		}
	}
}

var schedKeys = map[string]string{
	"pia_sched_steps":        "steps",
	"pia_sched_stalls":       "stalls",
	"pia_sched_deliveries":   "deliveries",
	"pia_sched_par_rounds":   "par_rounds",
	"pia_comp_cost_ns_total": "cost_ns",
	"pia_chan_asks_out":      "asks_out",
	"pia_chan_grants_out":    "grants_out",
	"pia_chan_flushes":       "flushes",
	"pia_chan_data_out":      "data_out",
}

// ---- Table 1: one designer loading the paper's page ----

// wantLoad is a page load's virtual outcome: Table 1's invariants.
type wantLoad struct {
	virt   int64 // virtual load time, ns
	drives int   // drives on the switchable DMA link
}

type wantMap map[string]wantLoad

// table1Want holds the paper page's invariants for the remote
// placement; they do not depend on coalescing.
var table1Want = wantMap{
	"remote-word":           {virt: 1_113_200_515, drives: 16_897},
	"remote-word-coalesced": {virt: 1_113_200_515, drives: 16_897},
}

// table1 is a Table 1 remote row run as a closed loop of single-load
// co-simulations: each operation installs WubbleU, builds it on two
// nodes, runs the page load to completion, checks it and closes it.
type table1 struct {
	coalesce bool
	cfg      wubbleu.Config
	until    pia.Time
	want     wantLoad
	skew     uint64
}

func newTable1(c config, coalesce bool) *table1 {
	cfg := wubbleu.DefaultConfig()
	cfg.Level = proto.LevelWord
	if c.pageSize > 0 {
		cfg.PageSize = c.pageSize
	}
	want := table1Want
	if c.want != nil {
		want = c.want
	}
	// Multi-subsystem runs need a finite horizon: 100x the radio
	// transfer time, at least one virtual second.
	per := vtime.Duration(int64(cfg.PageSize) * 8 * int64(vtime.Second) / cfg.RadioBitsPerSec * 100)
	if per < vtime.Second {
		per = vtime.Second
	}
	return &table1{coalesce: coalesce, cfg: cfg, until: pia.Time(per), want: want[c.workload], skew: c.skew}
}

func (w *table1) inputs() string {
	return fmt.Sprintf("fixed by the paper's page (%d bytes, %d images, word passage); the seed does not change them", w.cfg.PageSize, w.cfg.Images)
}

// setUp has nothing to prepare: every operation builds its own system
// and contributes its build time as a setup_s sample.
func (w *table1) setUp(*phase) error { return nil }

func (w *table1) headline(ph *phase) float64 { return median(ph.load) }

func (w *table1) close() {}

func (w *table1) measure(ph *phase, deadline time.Time) {
	for time.Now().Before(deadline) {
		w.op(ph)
	}
}

func (w *table1) build() (*pia.Cluster, []*pia.Node, *wubbleu.App, error) {
	b := pia.NewSystem("wubbleu")
	app, err := wubbleu.Install(b, w.cfg, wubbleu.RemotePlacement())
	if err != nil {
		return nil, nil, nil, err
	}
	b.SetDefaultChannel(pia.Conservative, pia.LoopbackLink)
	if w.coalesce {
		b.SetCoalescing(pia.DefaultCoalesce)
	}
	nodes := []*pia.Node{pia.NewNode("handheld-node"), pia.NewNode("modem-node")}
	cl, err := b.BuildOnNodes(map[string]*pia.Node{"handheld": nodes[0], "modemsite": nodes[1]})
	if err != nil {
		for _, n := range nodes {
			n.Close()
		}
		return nil, nil, nil, err
	}
	return cl, nodes, app, nil
}

func (w *table1) op(ph *phase) {
	t0 := time.Now()
	sim, nodes, app, err := w.build()
	if err != nil {
		ph.end(false, fmt.Errorf("build: %w", err))
		return
	}
	ph.setup = append(ph.setup, secs(time.Since(t0)))
	ph.span("pia.build", t0)
	var reg *pia.MetricsRegistry
	if ph.traced {
		reg = sim.EnableMetrics(pia.NewMetricsRegistry())
		sim.EnableCostAttribution(reg, costTopN)
	}

	t1 := time.Now()
	err = sim.Run(w.until)
	d := secs(time.Since(t1))
	completed := err == nil
	if completed {
		ph.load = append(ph.load, d)
		ph.step = append(ph.step, d)
		ph.span("pia.run", t1)
		err = w.check(app.Result())
		if ph.traced {
			sumCounters(ph.count, reg.Snapshot(), schedKeys)
			for _, n := range nodes {
				ws := n.WireStats()
				ph.count["frames_out"] += float64(ws.FramesOut)
				ph.count["bytes_out"] += float64(ws.BytesOut)
			}
		}
	}

	t2 := time.Now()
	if cerr := sim.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	ph.span("pia.close", t2)
	ph.end(completed, err)
}

// check compares a load with the workload's invariants.
func (w *table1) check(r wubbleu.Result) error {
	if r.Loads != 1 || len(r.LoadVirt) != 1 {
		return fmt.Errorf("%d loads completed, want 1", r.Loads)
	}
	if got, want := int64(r.LoadVirt[0]), w.want.virt+int64(w.skew); got != want {
		return fmt.Errorf("virtual load time %d ns, want %d", got, want)
	}
	if r.DMADrives != w.want.drives+int(w.skew) {
		return fmt.Errorf("%d link drives, want %d", r.DMADrives, w.want.drives+int(w.skew))
	}
	return nil
}

// ---- sessions: the multi-tenant service as pianode -service runs it ----

const (
	defaultTenants = 120
	specCount      = 16                     // distinct tenant specs per run
	quantum        = 20 * vtime.Millisecond // virtual time per Step call
	// setupEvery is how often an untraced sessions phase pauses its
	// clients to time one more set-up of a second stack, so setup_s
	// samples the whole run, as every other metric does, instead of
	// the host's speed in its first milliseconds.
	setupEvery = 500 * time.Millisecond
)

// sessions holds a fixed population of live fan tenants in a catalog
// with a metrics registry and a flight observer, stepped round-robin
// by GOMAXPROCS closed-loop clients over a shared pool of as many
// workers. A tenant that finishes has its digest checked and is
// stopped and replaced; that lifecycle is one operation.
type sessions struct {
	seed    int64
	skew    uint64
	clients int
	specs   []service.Spec
	refs    []uint64 // isolated single-session digest per spec
	slots   []*slot
	live    *stack // the stack the clients step
}

// stack is a service catalog with its observers.
type stack struct {
	cat    *service.Catalog
	reg    *pia.MetricsRegistry
	smp    *pia.FlightSampler
	traced bool // the catalog attributes component cost
}

// slot is one position of the live population; its tenant changes
// every lifecycle.
type slot struct {
	idx, gen int
	id       string
	spec     int
	sim      float64 // Step seconds spent on the current tenant
}

func newSessions(c config) *sessions {
	n := c.tenants
	if n <= 0 {
		n = defaultTenants
	}
	w := &sessions{seed: c.seed, skew: c.skew, clients: runtime.GOMAXPROCS(0)}
	for i := 0; i < n; i++ {
		w.slots = append(w.slots, &slot{idx: i})
	}
	// Every tenant runs pianode -service's default fan shape, so the
	// cost of a run does not depend on the seed; the seed picks the
	// values the tenants hash and the order tenants arrive in.
	for k := 0; k < specCount; k++ {
		w.specs = append(w.specs, service.Spec{
			Workload: service.WorkloadFan,
			Seed:     int64(splitmix(uint64(c.seed)^uint64(k)<<32) >> 1),
		})
	}
	return w
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (w *sessions) inputs() string {
	return fmt.Sprintf("%d live fan tenants; %d tenant specs and their arrival order derived from the seed", len(w.slots), len(w.specs))
}

func (w *sessions) headline(ph *phase) float64 { return quantile(ph.step, 0.5) }

// specFor picks the spec of a slot's current generation.
func (w *sessions) specFor(s *slot) int {
	return int(splitmix(uint64(w.seed)^uint64(s.idx)<<40^uint64(s.gen)) % uint64(len(w.specs)))
}

// references runs every spec alone in its own sequential catalog; each
// multi-tenant lifecycle must reproduce that digest bit for bit.
func (w *sessions) references() error {
	w.refs = make([]uint64, len(w.specs))
	for k, spec := range w.specs {
		cat := service.NewCatalog(service.Config{})
		info, err := cat.Create(spec)
		if err == nil {
			info, err = cat.Step(info.ID, 0, 0)
		}
		cat.Close()
		if err != nil {
			return fmt.Errorf("reference for spec %d: %w", k, err)
		}
		if info.State != service.StateDone {
			return fmt.Errorf("reference for spec %d ended %q", k, info.State)
		}
		w.refs[k] = info.DigestU64
	}
	return nil
}

// newStack builds a catalog with a metrics registry and a flight
// observer; component cost is attributed when traced.
func (w *sessions) newStack(traced bool) *stack {
	st := &stack{reg: pia.NewMetricsRegistry(), traced: traced}
	rec := pia.NewFlightRecorder(0)
	rec.SetInfo("mode", "service")
	rec.AttachRegistry(st.reg)
	hub := pia.NewFlightHub()
	st.smp = pia.NewFlightSampler(st.reg, rec, hub, time.Second)
	st.smp.Start()
	topN := 0
	if traced {
		topN = costTopN
	}
	st.cat = service.NewCatalog(service.Config{
		Workers:         w.clients,
		Metrics:         st.reg,
		Flight:          &pia.FlightObserver{Rec: rec, Hub: hub},
		AttributionTopN: topN,
	})
	return st
}

func (st *stack) close() {
	st.cat.Close()
	st.smp.Stop()
}

// open builds the live stack and admits the initial population, one
// tenant per slot.
func (w *sessions) open(ph *phase) error {
	w.live = w.newStack(ph.traced)
	for _, s := range w.slots {
		if err := w.create(ph, s); err != nil {
			return fmt.Errorf("admit tenant %d: %w", s.idx, err)
		}
	}
	return nil
}

func (w *sessions) close() {
	if w.live != nil {
		w.live.close()
		w.live = nil
	}
}

// setUp computes the references untimed and times the first open.
func (w *sessions) setUp(ph *phase) error {
	if err := w.references(); err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.open(ph); err != nil {
		return err
	}
	ph.setup = append(ph.setup, secs(time.Since(t0)))
	return nil
}

// setUpAside times the same set-up as open on a second stack beside
// the live one, from a collected heap as the first open, then closes
// it. Its wall time, collection and allocation are kept out of the
// phase's.
func (w *sessions) setUpAside(ph *phase) error {
	a0 := heapAllocBytes()
	c0 := time.Now()
	runtime.GC()
	t0 := time.Now()
	st := w.newStack(false)
	var err error
	for i := range w.slots {
		if _, err = st.cat.Create(w.specs[i%len(w.specs)]); err != nil {
			break
		}
	}
	if err == nil {
		ph.setup = append(ph.setup, secs(time.Since(t0)))
	}
	st.close()
	ph.asideWall += secs(time.Since(c0))
	ph.asideAlloc += float64(heapAllocBytes() - a0)
	if err != nil {
		return fmt.Errorf("set-up aside: %w", err)
	}
	return nil
}

func (w *sessions) measure(ph *phase, deadline time.Time) {
	if ph.traced != w.live.traced {
		w.close()
		if err := w.open(ph); err != nil {
			ph.end(false, err)
			return
		}
	}
	next := make([]int, w.clients) // each client's round-robin position
	for {
		until := deadline
		if t := time.Now().Add(setupEvery); !ph.traced && t.Before(until) {
			until = t
		}
		w.runClients(ph, next, until)
		if !time.Now().Before(deadline) {
			break
		}
		if err := w.setUpAside(ph); err != nil {
			ph.end(false, err)
		}
	}
	if ph.traced {
		w.countLive(ph)
	}
}

// runClients runs the closed-loop clients until the deadline, each
// stepping its own share of the slots.
func (w *sessions) runClients(ph *phase, next []int, deadline time.Time) {
	parts := make([]*phase, w.clients)
	var wg sync.WaitGroup
	for g := range parts {
		parts[g] = newPhase(ph.traced)
		var own []*slot
		for i := g; i < len(w.slots); i += w.clients {
			own = append(own, w.slots[i])
		}
		wg.Add(1)
		go func(cp *phase, own []*slot, pos *int) {
			defer wg.Done()
			w.client(cp, own, pos, deadline)
		}(parts[g], own, &next[g])
	}
	wg.Wait()
	for _, p := range parts {
		ph.merge(p)
	}
}

// client steps its own tenants round-robin from *pos, one call at a
// time.
func (w *sessions) client(ph *phase, own []*slot, pos *int, deadline time.Time) {
	for len(own) > 0 && time.Now().Before(deadline) {
		w.step(ph, own[*pos%len(own)])
		*pos++
	}
}

func (w *sessions) step(ph *phase, s *slot) {
	if s.id == "" {
		if err := w.create(ph, s); err != nil {
			ph.end(false, err)
			return
		}
	}
	t0 := time.Now()
	info, err := w.live.cat.Step(s.id, 0, quantum)
	d := secs(time.Since(t0))
	if err != nil {
		ph.end(false, fmt.Errorf("step %s: %w", s.id, err))
		_ = w.stop(ph, s) // the lifecycle has already failed
		return
	}
	ph.step = append(ph.step, d)
	s.sim += d
	if info.State != service.StateDone {
		return
	}
	ph.load = append(ph.load, s.sim)
	if ph.traced {
		ph.count["steps"] += float64(info.Steps)
	}
	if want := w.refs[s.spec] + w.skew; info.DigestU64 != want {
		err = fmt.Errorf("tenant %s digest %016x, want %016x", s.id, info.DigestU64, want)
	}
	if serr := w.stop(ph, s); serr != nil && err == nil {
		err = serr
	}
	ph.end(true, err)
}

func (w *sessions) create(ph *phase, s *slot) error {
	s.gen++
	s.spec = w.specFor(s)
	t0 := time.Now()
	info, err := w.live.cat.Create(w.specs[s.spec])
	ph.span("service.create", t0)
	if err != nil {
		return fmt.Errorf("create: %w", err)
	}
	s.id, s.sim = info.ID, 0
	if ph.traced {
		if live := w.live.cat.Stats().Live; live > ph.livePeak {
			ph.livePeak = live
		}
	}
	return nil
}

func (w *sessions) stop(ph *phase, s *slot) error {
	t0 := time.Now()
	_, err := w.live.cat.Stop(s.id, 0)
	ph.span("service.stop", t0)
	s.id = ""
	if err != nil {
		return fmt.Errorf("stop: %w", err)
	}
	return nil
}

// countLive reads the scheduler counters of the tenants live at the
// end of a traced phase. A stopped tenant's counters leave the
// registry with it, so the per-lifecycle counts are these live
// tenants' per-step ratios scaled by the exact steps per lifecycle.
func (w *sessions) countLive(ph *phase) {
	live := map[string]float64{}
	sumCounters(live, w.live.reg.Snapshot(), schedKeys)
	if live["steps"] > 0 {
		for _, k := range []string{"stalls", "deliveries", "par_rounds", "cost_ns"} {
			ph.count[k] = live[k] / live["steps"] * ph.count["steps"]
		}
	}
	st := w.live.cat.Stats()
	ph.count["rejected"] = float64(st.Rejected)
	ph.count["evicted"] = float64(st.Evicted)
}
