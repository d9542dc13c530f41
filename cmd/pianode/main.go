// pianode runs a standalone Pia node serving the modem site of the
// WubbleU design: the cellular communication ASIC plus the dedicated
// server behind its wireless link. This is the parts-vendor scenario
// the paper motivates — a component made available over the network
// for designers to patch into their simulated circuits.
//
// Start the server:
//
//	pianode -listen 127.0.0.1:7777 -level packetLevel
//
// then run the handheld side against it:
//
//	wubbleu -remote 127.0.0.1:7777
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/flight"
	"repro/internal/mesh"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/timeline"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7777", "address to serve Pia channels on")
	level := flag.String("level", "packetLevel", "initial DMA detail level (hardwareLevel|wordLevel|packetLevel)")
	pageKB := flag.Int("page", 66, "page size in KB served by the web store")
	images := flag.Int("images", 4, "images embedded in the page")
	verbose := flag.Bool("v", false, "log channel activity")
	workers := flag.Int("workers", 0, "scheduler worker-pool size (0 = sequential; results are identical)")
	optimism := flag.Int64("optimism", 0, "speculate this many virtual ns past the safe horizon when workers would idle (0 = conservative; results are identical)")
	coalesce := flag.Bool("coalesce", false, "coalesce egress messages into batched wire frames")
	coalesceMsgs := flag.Int("coalesce-msgs", channel.DefaultCoalesce.MaxMsgs, "flush a batch at this many queued messages")
	coalesceBytes := flag.Int("coalesce-bytes", channel.DefaultCoalesce.MaxBytes, "flush a batch at this many queued payload bytes (0 = no byte budget)")
	coalesceHold := flag.Int64("coalesce-hold", 0, "flush when queued drives span this many virtual ns (0 = unbounded)")

	// Deterministic fault injection on accepted connections (chaos
	// testing a designer's link against this vendor node).
	seed := flag.Int64("seed", 1, "fault-schedule seed; same seed reproduces the same faults")
	faultDrop := flag.Float64("fault-drop", 0, "probability a frame is dropped")
	faultDup := flag.Float64("fault-dup", 0, "probability a frame is duplicated")
	faultReorder := flag.Float64("fault-reorder", 0, "probability a frame is swapped with its successor")
	faultCorrupt := flag.Float64("fault-corrupt", 0, "probability one frame byte is flipped")
	faultLatency := flag.Duration("fault-latency", 0, "fixed wall-clock delay per frame")
	faultJitter := flag.Duration("fault-jitter", 0, "uniform random extra delay per frame")
	faultBW := flag.Int64("fault-bw", 0, "bandwidth cap in bits/s (0 = uncapped)")
	faultPartition := flag.String("fault-partition", "", "scripted partitions, \"atframe:healms[,...]\" e.g. \"50:15\"")

	// Resumable sessions: survive connection loss and injected faults.
	resilient := flag.Bool("resilient", false, "speak the resumable session protocol (peer must too)")
	heartbeat := flag.Duration("heartbeat", time.Second, "session heartbeat interval")
	heartbeatMiss := flag.Int("heartbeat-miss", 0, "missed heartbeats before the connection is declared dead (0 = default)")
	retryBase := flag.Duration("retry-base", 0, "initial reconnect backoff (0 = default)")
	retryMax := flag.Int("retry-max", 0, "reconnect attempts per outage before giving up (0 = default)")
	retentionFrames := flag.Int("retention-frames", 0, "unacked frames retained for resume (0 = default)")
	retentionBytes := flag.Int("retention-bytes", 0, "unacked bytes retained for resume (0 = default)")

	// Observability: the unified metrics registry, exposed over HTTP
	// and/or as periodic run-report lines.
	metricsAddr := flag.String("metrics", "", "serve /metrics (JSON + Prometheus text) and /healthz on this address (empty = off)")
	report := flag.Duration("report", 0, "print a structured run-report line at this interval (0 = off)")
	pprofOn := flag.Bool("pprof", false, "also serve /debug/pprof/ on the -metrics address")
	timelinePath := flag.String("timeline", "", "record a structured timeline and write it (per-node native JSON) to this file at shutdown")
	flightDump := flag.String("flight-dump", "", "write flight-recorder post-mortem JSON dumps into this directory when a failure trigger trips (requires -metrics)")
	watchEvery := flag.Duration("watch-interval", time.Second, "sampling cadence for the /watch telemetry stream and the flight recorder's metric deltas")
	attribTop := flag.Int("attrib-top", 0, "per-component wall-cost attribution: export cost histograms plus a top-N ranking in /metrics (0 = off; requires -metrics)")
	timelineMerge := flag.String("timeline-merge", "", "merge per-node timeline files (remaining args) into a Perfetto trace at this path, then exit")

	// Service mode: a multi-tenant session catalog replaces the single
	// modem-site subsystem. Designers create sessions over HTTP and
	// attach over the shared data listener by session id.
	serviceMode := flag.Bool("service", false, "run the multi-tenant session service (session API on the -metrics address, data channels on -listen)")
	maxSessions := flag.Int("max-sessions", 0, "service mode: admission cap on concurrent sessions (0 = unlimited)")
	maxMem := flag.Int64("max-mem", 0, "service mode: admission cap on total session footprint bytes (0 = unlimited)")
	maxSessionMem := flag.Int64("max-session-mem", 0, "service mode: admission cap on a single session's footprint bytes (0 = unlimited)")
	maxSteps := flag.Int64("max-steps", 0, "service mode: per-session scheduler-step budget; crossing it evicts the tenant (0 = unlimited)")

	// Mesh mode: join an N-node control plane running the shared
	// migration demo workload instead of serving the modem site.
	meshName := flag.String("mesh-name", "", "join a mesh as this member and run the migration demo workload (requires -peers)")
	meshPeers := flag.String("peers", "", "static mesh peer list: comma-separated name=host:port control addresses including this member's own entry (bare host:port entries get names derived from the address)")
	meshStep := flag.Duration("mesh-step", 25*time.Millisecond, "mesh lock-step round length in virtual time")
	meshUntil := flag.Duration("mesh-until", 0, "virtual horizon for the mesh run (0 = the demo workload's natural horizon)")
	meshMigrate := flag.String("mesh-migrate", "", "scripted live migration, \"component:dest@virtualtime\" e.g. \"hot:bravo@50ms\" (leader only)")
	flag.Parse()

	// Merge mode: stitch per-node timeline files from a distributed
	// run into one Perfetto trace and exit without serving anything.
	//
	//	pianode -timeline-merge trace.json node-a.json node-b.json
	if *timelineMerge != "" {
		if flag.NArg() == 0 {
			log.Fatal("pianode: -timeline-merge needs at least one per-node timeline file argument")
		}
		out, err := os.Create(*timelineMerge)
		if err != nil {
			log.Fatal(err)
		}
		if err := timeline.MergeFiles(out, flag.Args()...); err != nil {
			out.Close()
			log.Fatalf("pianode: -timeline-merge: %v", err)
		}
		if err := out.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pianode: merged %d timeline file(s) into %s (open at ui.perfetto.dev)\n",
			flag.NArg(), *timelineMerge)
		return
	}
	if *pprofOn && *metricsAddr == "" {
		log.Fatal("pianode: -pprof needs -metrics to provide the HTTP listener")
	}
	if *flightDump != "" && *metricsAddr == "" {
		log.Fatal("pianode: -flight-dump needs -metrics to enable the flight recorder")
	}
	if *serviceMode {
		if *meshName != "" || *meshPeers != "" {
			log.Fatal("pianode: -service and mesh mode are mutually exclusive")
		}
		if *metricsAddr == "" {
			log.Fatal("pianode: -service needs -metrics to provide the session API listener")
		}
	}

	fcfg := faultnet.Config{
		Seed:         *seed,
		Latency:      *faultLatency,
		Jitter:       *faultJitter,
		BandwidthBps: *faultBW,
		DropProb:     *faultDrop,
		DupProb:      *faultDup,
		ReorderProb:  *faultReorder,
		CorruptProb:  *faultCorrupt,
	}
	if *faultPartition != "" {
		parts, err := faultnet.ParsePartitions(*faultPartition)
		if err != nil {
			log.Fatalf("pianode: -fault-partition: %v", err)
		}
		fcfg.Partitions = parts
	}
	rcfg := resilience.Config{
		Heartbeat:       *heartbeat,
		HeartbeatMiss:   *heartbeatMiss,
		RetryBase:       *retryBase,
		RetryMax:        *retryMax,
		RetentionFrames: *retentionFrames,
		RetentionBytes:  *retentionBytes,
		Seed:            *seed,
	}

	if *serviceMode {
		if err := runService(serviceOptions{
			listen:      *listen,
			metricsAddr: *metricsAddr,
			verbose:     *verbose,
			pprofOn:     *pprofOn,
			resilient:   *resilient,
			workers:     *workers,
			limits: service.Limits{
				MaxSessions:        *maxSessions,
				MaxMemBytes:        *maxMem,
				MaxSessionMemBytes: *maxSessionMem,
				MaxSteps:           *maxSteps,
			},
			faults:     fcfg,
			res:        rcfg,
			flightDump: *flightDump,
			watchEvery: *watchEvery,
			attribTop:  *attribTop,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	// Mesh mode replaces the modem-site server wholesale: the node
	// becomes one member of an N-node control plane running the shared
	// migration demo workload in lock step.
	if *meshName != "" || *meshPeers != "" {
		if *meshName == "" {
			log.Fatal("pianode: -peers needs -mesh-name to say which member this node is")
		}
		// The single-node default port would collide between co-hosted
		// members; mesh mode defaults to an ephemeral data port (the
		// control plane exchanges the bound addresses) unless -listen
		// was given explicitly.
		dataListen := "127.0.0.1:0"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "listen" {
				dataListen = *listen
			}
		})
		if err := runMesh(meshOptions{
			name:         *meshName,
			peers:        *meshPeers,
			dataListen:   dataListen,
			metricsAddr:  *metricsAddr,
			timelinePath: *timelinePath,
			migrate:      *meshMigrate,
			pprofOn:      *pprofOn,
			verbose:      *verbose,
			resilient:    *resilient,
			step:         *meshStep,
			until:        *meshUntil,
			faults:       fcfg,
			res:          rcfg,
			flightDump:   *flightDump,
			watchEvery:   *watchEvery,
			attribTop:    *attribTop,
		}); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := wubbleu.DefaultConfig()
	cfg.PageSize = *pageKB * 1024
	cfg.Images = *images
	cfg.Level = *level

	sub := core.NewSubsystem("modemsite")
	sub.SetWorkers(*workers)
	if *optimism > 0 {
		sub.SetOptimism(vtime.Duration(*optimism))
	}
	if _, err := wubbleu.InstallModemSite(sub, cfg); err != nil {
		log.Fatal(err)
	}

	n := node.New("modem-node")
	if *verbose {
		n.Tracer = func(s string) { log.Print(s) }
	}
	if *coalesce {
		n.SetCoalescing(channel.CoalesceConfig{
			MaxMsgs:  *coalesceMsgs,
			MaxBytes: *coalesceBytes,
			MaxHold:  vtime.Duration(*coalesceHold),
		})
	}
	if fcfg.Enabled() {
		n.SetFaults(fcfg)
		if !*resilient {
			log.Print("pianode: warning: faults armed without -resilient; connections will not survive them")
		}
	}
	if *resilient {
		n.SetResilience(rcfg)
	}
	hosted := n.Host(sub)
	// When a designer's node connects, splice the incoming channel
	// into our fragment of the split "dma" net.
	hosted.OnChannel = func(ep *channel.Endpoint) {
		if err := ep.BindNet(sub.Net("dma"), "dma"); err != nil {
			log.Printf("pianode: bind dma: %v", err)
		}
	}

	// The metrics registry is created only when something will read
	// it; with both flags off the node runs on the zero-overhead
	// disabled path (nil registry, nil scheduler gauges).
	var reg *metrics.Registry
	if *metricsAddr != "" || *report > 0 {
		reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg, "modemsite")
		n.EnableMetrics(reg)
	}
	if *attribTop > 0 {
		if reg == nil {
			log.Fatal("pianode: -attrib-top needs -metrics (or -report) to provide the registry")
		}
		sub.EnableCostAttribution(reg, *attribTop)
	}
	// The timeline recorder, like the registry, exists only when asked
	// for; otherwise every hook stays nil and the hot path is
	// allocation-free.
	if *timelinePath != "" {
		n.EnableTimeline(timeline.NewRecorder(0))
	}
	// The flight recorder and /watch hub ride on the metrics listener:
	// with -metrics off the observer stays nil and every trigger path
	// pays one nil check.
	var fobs *flight.Observer
	if *metricsAddr != "" {
		var fsmp *flight.Sampler
		fobs, fsmp = newFlight(reg, *flightDump, "modemsite", *watchEvery)
		n.EnableFlight(fobs)
		sub.OnThrottleCollapse = func(spec, aborted int) {
			fobs.Event("throttle", sub.Name(), "rollback storm: speculation window collapsed", int64(aborted))
			fobs.Trip("rollback-storm", sub.Name())
		}
		fsmp.Start()
		defer fsmp.Stop()
	}

	addr, err := n.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pianode: serving subsystem %q (level %s, %d KB page) on %s\n",
		sub.Name(), cfg.Level, *pageKB, addr)

	var obsSrv *http.Server
	if *metricsAddr != "" {
		srv, maddr, err := serveObs(*metricsAddr, obsConfig{
			reg: reg, health: n, resilient: *resilient, pprofOn: *pprofOn,
			rec: fobs.Rec, hub: fobs.Hub,
		})
		if err != nil {
			log.Fatal(err)
		}
		obsSrv = srv
		fmt.Printf("pianode: metrics on http://%s/metrics, health on http://%s/healthz\n", maddr, maddr)
		fmt.Printf("pianode: live telemetry on http://%s/watch, flight recorder on http://%s/debug/flight\n", maddr, maddr)
		if *pprofOn {
			fmt.Printf("pianode: profiles on http://%s/debug/pprof/\n", maddr)
		}
	}
	if *report > 0 {
		t := time.NewTicker(*report)
		defer t.Stop()
		go func() {
			for range t.C {
				fmt.Println(reportLine(sub, n))
			}
		}()
	}

	// The listening socket is a standing ingress source: the
	// subsystem must not declare the simulation over just because no
	// designer has connected yet.
	sub.AddExternal()

	done := make(chan error, 1)
	go func() { done <- sub.Run(vtime.Infinity) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-done:
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("pianode: simulation complete")
	case <-sig:
		fmt.Println("pianode: interrupted")
		sub.Stop()
		<-done
	}
	if *timelinePath != "" {
		if err := n.WriteTimeline(*timelinePath); err != nil {
			log.Printf("pianode: -timeline: %v", err)
		} else {
			fmt.Printf("pianode: timeline written to %s (merge with -timeline-merge)\n", *timelinePath)
		}
	}
	shutdownObs(obsSrv)
	n.Close()
}

// healthSource is the slice of the node the health endpoint reads —
// an interface so the handler can be exercised against fabricated
// session states.
type healthSource interface {
	SessionHealth() (total, alive int)
	ResilienceStats() resilience.Stats
}

// migrator is the slice of the mesh member the admin endpoints use —
// an interface so the mux can be tested without forming a mesh.
// *mesh.Member implements it.
type migrator interface {
	Health() mesh.Health
	Name() string
	Leader() string
	Epoch() uint64
	Placement() map[string]string
	Members() []string
	RequestMigration(comp, dest string) error
}

// obsConfig selects what the observability mux serves.
type obsConfig struct {
	reg       *metrics.Registry
	health    healthSource
	resilient bool
	pprofOn   bool
	mem       migrator         // mesh mode: membership health + migration admin
	catalog   *service.Catalog // service mode: session API + per-tenant health
	rec       *flight.Recorder // GET /debug/flight post-mortem view
	hub       *flight.Hub      // GET /watch SSE telemetry stream
}

// newObsMux assembles the observability surface: /metrics in
// Prometheus text by default (JSON via ?format=json or an Accept
// header asking for application/json), /healthz reporting session
// liveness, and — when enabled — the net/http/pprof profile surface
// under /debug/pprof/. With a mesh member, /healthz switches to the
// membership view and POST /migrate becomes the live-migration admin
// endpoint; with a session catalog, the /sessions API is mounted and
// /healthz gains per-tenant liveness.
func newObsMux(o obsConfig) *http.ServeMux {
	mux := http.NewServeMux()
	if o.pprofOn {
		// The handlers register themselves on http.DefaultServeMux at
		// import time; this mux is a private one, so wire them in
		// explicitly. Index serves every named profile (heap,
		// goroutine, allocs, ...) under the prefix.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		var err error
		if r.URL.Query().Get("format") == "json" ||
			strings.Contains(r.Header.Get("Accept"), "application/json") {
			w.Header().Set("Content-Type", "application/json")
			err = o.reg.WriteJSON(w)
		} else {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			err = o.reg.WritePrometheus(w)
		}
		if err != nil {
			log.Printf("pianode: writing /metrics response: %v", err)
		}
	})
	if o.rec != nil {
		mux.Handle("/debug/flight", o.rec)
	}
	if o.hub != nil {
		mux.Handle("/watch", o.hub)
	}
	if o.mem != nil {
		mux.HandleFunc("/migrate", func(w http.ResponseWriter, r *http.Request) {
			handleMigrate(w, r, o.mem)
		})
	}
	if o.catalog != nil {
		api := service.Handler(o.catalog)
		mux.Handle("/sessions", api)
		mux.Handle("/sessions/", api)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if o.mem != nil {
			meshHealth(w, o.mem)
			return
		}
		nodeHealth(w, o)
	})
	return mux
}

// nodeHealth reports session liveness. A dead session is one that
// exhausted its retry budget or hit an unresumable gap: the designer
// on its far end is gone for good, which is exactly what a health
// probe should surface — whether or not -resilient armed the
// resumable protocol. Sessions mid-outage still count as alive. In
// service mode the tenant catalog is folded in: a failed or evicted
// tenant degrades the probe the same way.
func nodeHealth(w http.ResponseWriter, o obsConfig) {
	total, alive := o.health.SessionHealth()
	rs := o.health.ResilienceStats()
	status, code := "ok", http.StatusOK
	if total > alive {
		status, code = "degraded", http.StatusServiceUnavailable
	}
	body := map[string]any{
		"resilient":       o.resilient,
		"sessions":        total,
		"sessions_alive":  alive,
		"epoch_deaths":    rs.EpochDeaths,
		"resumes":         rs.Resumes,
		"replayed_frames": rs.ReplayedFrames,
		"rewinds":         rs.Rewinds,
	}
	if o.catalog != nil {
		infos, rev := o.catalog.List()
		tenants := make(map[string]string, len(infos))
		dead := 0
		for _, in := range infos {
			tenants[in.ID] = string(in.State)
			if in.State == service.StateFailed || in.State == service.StateEvicted {
				dead++
			}
		}
		if dead > 0 && code == http.StatusOK {
			status, code = "degraded", http.StatusServiceUnavailable
		}
		body["service"] = true
		body["catalog_rev"] = rev
		body["tenants"] = tenants
		body["tenants_failed"] = dead
	}
	body["status"] = status
	writeObsJSON(w, code, body)
}

// writeObsJSON writes a JSON response and logs the failure a bare
// Encode would swallow — a probe hanging up mid-body otherwise looks
// identical to a served request.
func writeObsJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("pianode: writing response: %v", err)
	}
}

// serveObs starts the observability HTTP listener. Returns the
// server (so the caller can drain it at shutdown) and the bound
// address.
func serveObs(addr string, o obsConfig) (*http.Server, string, error) {
	srv := &http.Server{
		Handler: newObsMux(o),
		// Slow-client bounds: a scraper that stalls mid-headers or
		// mid-read cannot pin a connection open forever. The write
		// budget is generous because /debug/pprof/profile streams
		// for its ?seconds= argument (30s by default) before the
		// response completes.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("pianode: -metrics %s: %w", addr, err)
	}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("pianode: metrics server: %v", err)
		}
	}()
	return srv, ln.Addr().String(), nil
}

// shutdownObs drains in-flight scrapes before the process exits. A
// nil server (observability was never enabled) is a no-op.
func shutdownObs(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("pianode: metrics shutdown: %v", err)
	}
}

// newFlight assembles the flight-recorder stack for one mode: the
// ring recorder (stamped with the mode and wired to the registry),
// the /watch streaming hub, and the sampler feeding both with metric
// deltas. When dumpDir is set, a trip writes the post-mortem there as
// a self-contained JSON file.
func newFlight(reg *metrics.Registry, dumpDir, mode string, every time.Duration) (*flight.Observer, *flight.Sampler) {
	rec := flight.New(0)
	rec.SetInfo("mode", mode)
	rec.AttachRegistry(reg)
	hub := flight.NewHub()
	if dumpDir != "" {
		if err := os.MkdirAll(dumpDir, 0o755); err != nil {
			log.Fatalf("pianode: -flight-dump: %v", err)
		}
		rec.OnTrip(func(d *flight.Dump) {
			path := filepath.Join(dumpDir, fmt.Sprintf("flight-%s-%d.json", mode, d.GeneratedNS))
			f, err := os.Create(path)
			if err != nil {
				log.Printf("pianode: flight dump: %v", err)
				return
			}
			if err := d.WriteJSON(f); err != nil {
				log.Printf("pianode: flight dump: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Printf("pianode: flight dump: %v", err)
				return
			}
			fmt.Printf("pianode: flight recorder tripped (%s): post-mortem written to %s\n", d.Reason, path)
		})
	}
	smp := flight.NewSampler(reg, rec, hub, every)
	return &flight.Observer{Rec: rec, Hub: hub}, smp
}

// meshHealth reports this member's view of the mesh: every member
// with its join/leave state and last-heartbeat age. The probe fails
// (503) only when a quorum of members is dead; losing one peer of a
// larger mesh reports "degraded" but stays 200, because the mesh is
// still able to coordinate rounds once the peer returns.
func meshHealth(w http.ResponseWriter, mem migrator) {
	h := mem.Health()
	status, code := "ok", http.StatusOK
	switch {
	case h.QuorumDead:
		status, code = "quorum-dead", http.StatusServiceUnavailable
	case h.Alive < h.Total:
		status = "degraded"
	}
	writeObsJSON(w, code, map[string]any{
		"status":     status,
		"mesh":       true,
		"self":       mem.Name(),
		"leader":     mem.Leader(),
		"epoch":      mem.Epoch(),
		"placement":  mem.Placement(),
		"members":    h.Members,
		"alive":      h.Alive,
		"total":      h.Total,
		"quorumDead": h.QuorumDead,
	})
}

// handleMigrate accepts POST /migrate?component=hot&dest=bravo on any
// member and forwards the request to the mesh leader, which performs
// the migration at the next held drain barrier. The response only
// acknowledges acceptance; completion shows up as an epoch bump in
// /healthz.
func handleMigrate(w http.ResponseWriter, r *http.Request, mem migrator) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	comp := r.FormValue("component")
	if comp == "" {
		comp = r.FormValue("comp")
	}
	dest := r.FormValue("dest")
	if comp == "" || dest == "" {
		http.Error(w, "need component= and dest= parameters", http.StatusBadRequest)
		return
	}
	if _, ok := mem.Placement()[comp]; !ok {
		http.Error(w, fmt.Sprintf("unknown component %q", comp), http.StatusNotFound)
		return
	}
	known := false
	for _, name := range mem.Members() {
		known = known || name == dest
	}
	if !known {
		http.Error(w, fmt.Sprintf("unknown member %q", dest), http.StatusNotFound)
		return
	}
	if err := mem.RequestMigration(comp, dest); err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	writeObsJSON(w, http.StatusOK, map[string]any{
		"accepted":  true,
		"component": comp,
		"dest":      dest,
		"leader":    mem.Leader(),
	})
}

// serviceOptions carries the parsed flag values into service mode.
type serviceOptions struct {
	listen, metricsAddr string
	verbose, pprofOn    bool
	resilient           bool
	workers             int
	limits              service.Limits
	faults              faultnet.Config
	res                 resilience.Config
	flightDump          string
	watchEvery          time.Duration
	attribTop           int
}

// runService turns the node into a multi-tenant simulation service:
// a session catalog managed over HTTP on the -metrics address, every
// live session hosted under its id behind the one shared data
// listener, all of them fair-sharing one bounded worker pool.
func runService(o serviceOptions) error {
	n := node.New("service-node")
	if o.verbose {
		n.Tracer = func(s string) { log.Print(s) }
	}
	if o.faults.Enabled() {
		n.SetFaults(o.faults)
		if !o.resilient {
			log.Print("pianode: warning: faults armed without -resilient; connections will not survive them")
		}
	}
	if o.resilient {
		n.SetResilience(o.res)
	}
	defer n.Close()

	// One shared registry backs the scrape, but the node is NOT wired
	// into it: each session runs its own registry (so its samples can
	// carry the tenant label), and the catalog's collector re-emits
	// them all into this one at snapshot time.
	reg := metrics.NewRegistry()
	metrics.RegisterBuildInfo(reg, "service")
	fobs, fsmp := newFlight(reg, o.flightDump, "service", o.watchEvery)
	n.EnableFlight(fobs)
	fsmp.Start()
	defer fsmp.Stop()
	cat := service.NewCatalog(service.Config{
		Workers:         o.workers,
		Limits:          o.limits,
		Node:            n,
		Metrics:         reg,
		Flight:          fobs,
		AttributionTopN: o.attribTop,
	})
	defer cat.Close()

	addr, err := n.Listen(o.listen)
	if err != nil {
		return err
	}
	srv, maddr, err := serveObs(o.metricsAddr, obsConfig{
		reg: reg, health: n, resilient: o.resilient,
		pprofOn: o.pprofOn, catalog: cat,
		rec: fobs.Rec, hub: fobs.Hub,
	})
	if err != nil {
		return err
	}
	fmt.Printf("pianode: session service up: data channels on %s, session API on http://%s/sessions\n",
		addr, maddr)
	fmt.Printf("pianode: metrics on http://%s/metrics, health on http://%s/healthz\n", maddr, maddr)
	fmt.Printf("pianode: live telemetry on http://%s/watch (?session= filters a tenant), flight recorder on http://%s/debug/flight\n", maddr, maddr)
	if o.pprofOn {
		fmt.Printf("pianode: profiles on http://%s/debug/pprof/\n", maddr)
	}
	if o.workers > 0 {
		fmt.Printf("pianode: sessions fair-share a %d-worker pool\n", o.workers)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("pianode: interrupted")
	shutdownObs(srv)
	st := cat.Stats()
	fmt.Printf("pianode: service done: live=%d created=%d stopped=%d evicted=%d rejected=%d\n",
		st.Live, st.Created, st.Stopped, st.Evicted, st.Rejected)
	return nil
}

// meshOptions carries the parsed flag values into mesh mode.
type meshOptions struct {
	name, peers, dataListen, metricsAddr, timelinePath, migrate string
	pprofOn, verbose, resilient                                 bool
	step, until                                                 time.Duration
	faults                                                      faultnet.Config
	res                                                         resilience.Config
	flightDump                                                  string
	watchEvery                                                  time.Duration
	attribTop                                                   int
}

// runMesh joins the static mesh as one member and runs the shared
// migration demo workload in lock step with its peers. The
// lexicographically smallest member leads; every member prints its
// per-component drive digests at the end, so bit-identical output
// across a migrated and a stationary run can be checked from the
// shell.
func runMesh(o meshOptions) error {
	peers, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	self, ok := peers[o.name]
	if !ok {
		return fmt.Errorf("pianode: -peers has no entry for this member %q", o.name)
	}
	names := make([]string, 0, len(peers))
	for name := range peers {
		names = append(names, name)
	}
	sort.Strings(names)
	// The control plane is N-node; the demo workload is written for
	// exactly three members (DemoBlueprint rejects other sizes).
	params := mesh.DemoParams{Members: names}
	bp, err := mesh.DemoBlueprint(params)
	if err != nil {
		return err
	}

	nd := node.New(o.name)
	if o.verbose {
		nd.Tracer = func(s string) { log.Print(s) }
	}
	if o.faults.Enabled() {
		nd.SetFaults(o.faults)
		if !o.resilient {
			log.Print("pianode: warning: faults armed without -resilient; data channels will not survive them")
		}
	}
	if o.resilient {
		nd.SetResilience(o.res)
	}
	var reg *metrics.Registry
	if o.metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterBuildInfo(reg, "mesh")
		nd.EnableMetrics(reg)
	}
	cfg := mesh.Config{
		Name:       o.name,
		Blueprint:  bp,
		Node:       nd,
		CtlListen:  self,
		DataListen: o.dataListen,
	}
	if o.timelinePath != "" {
		cfg.Timeline = timeline.NewRecorder(0)
	}
	mem, err := mesh.New(cfg)
	if err != nil {
		return err
	}
	defer mem.Close()
	fmt.Printf("pianode: mesh member %q: control on %s, data on %s\n",
		o.name, mem.CtlAddr(), mem.DataAddr())

	// Flight stack: peer-loss trips via the node, quorum death via the
	// sampler's poll hook (membership health is not registry-driven).
	var fobs *flight.Observer
	if o.metricsAddr != "" {
		fobs2, fsmp := newFlight(reg, o.flightDump, "mesh", o.watchEvery)
		fobs = fobs2
		fobs.Rec.SetInfo("member", o.name)
		nd.EnableFlight(fobs)
		fsmp.SetPoll(func() {
			if h := mem.Health(); h.QuorumDead {
				fobs.Event("health", o.name, fmt.Sprintf("quorum dead: %d/%d members alive", h.Alive, h.Total), int64(h.Alive))
				fobs.Trip("quorum-dead", fmt.Sprintf("%s sees %d/%d alive", o.name, h.Alive, h.Total))
			}
		})
		fsmp.Start()
		defer fsmp.Stop()
		if o.attribTop > 0 {
			mem.Subsystem().EnableCostAttribution(reg, o.attribTop)
		}
	}

	// Admin/metrics listener comes up before the (blocking) mesh
	// formation so probes can watch the mesh assemble.
	var obsSrv *http.Server
	defer func() { shutdownObs(obsSrv) }()
	if o.metricsAddr != "" {
		srv, maddr, err := serveObs(o.metricsAddr, obsConfig{
			reg: reg, health: nd, resilient: o.resilient, pprofOn: o.pprofOn, mem: mem,
			rec: fobs.Rec, hub: fobs.Hub,
		})
		if err != nil {
			return err
		}
		obsSrv = srv
		fmt.Printf("pianode: mesh health on http://%s/healthz, migration admin on http://%s/migrate\n",
			maddr, maddr)
	}

	others := make(map[string]string, len(peers))
	for name, addr := range peers {
		if name != o.name {
			others[name] = addr
		}
	}
	if err := mem.Start(others); err != nil {
		return err
	}
	fmt.Printf("pianode: mesh up: %d members, leader %q\n", len(names), mem.Leader())

	if o.migrate != "" {
		comp, dest, at, err := parseMigrate(o.migrate)
		if err != nil {
			return err
		}
		if mem.IsLeader() {
			if err := mem.MigrateAt(at, comp, dest); err != nil {
				return err
			}
			fmt.Printf("pianode: migration of %q to %q scheduled at vt=%d\n", comp, dest, int64(at))
		} else {
			log.Print("pianode: -mesh-migrate ignored on a follower; pass it to the leader (or POST /migrate to any member)")
		}
	}

	until := vtime.Time(o.until.Nanoseconds())
	if o.until <= 0 {
		until = params.Horizon()
	}
	done := make(chan error, 1)
	go func() {
		if mem.IsLeader() {
			done <- mem.Lead(until, vtime.Duration(o.step.Nanoseconds()))
		} else {
			done <- mem.Wait()
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	select {
	case err := <-done:
		if err != nil {
			return err
		}
	case <-sig:
		fmt.Println("pianode: interrupted")
		mem.Close()
		<-done
		return nil
	}

	st := mem.Stats()
	fmt.Printf("pianode: mesh run complete: rounds=%d reissues=%d migrations=%d epoch=%d\n",
		st.Rounds, st.Reissues, st.Migrations, st.Epoch)
	if st.Migrations > 0 {
		fmt.Printf("pianode: last migration: virtual downtime=%dns wall=%s epoch_propagation=%s\n",
			int64(st.MigrationVirtual), st.MigrationWall, st.EpochPropagation)
	}
	digs := mem.Digests()
	comps := make([]string, 0, len(digs))
	for c := range digs {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Printf("pianode: digest %s=%016x\n", c, digs[c])
	}
	if o.timelinePath != "" {
		if err := nd.WriteTimeline(o.timelinePath); err != nil {
			log.Printf("pianode: -timeline: %v", err)
		} else {
			fmt.Printf("pianode: timeline written to %s (merge with -timeline-merge)\n", o.timelinePath)
		}
	}
	return nil
}

// parsePeers parses the static member list. Entries are
// name=host:port; a bare host:port gets a deterministic name derived
// from the address so every member derives the same set.
func parsePeers(s string) (map[string]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("pianode: mesh mode needs -peers name=host:port[,name=host:port...]")
	}
	peers := make(map[string]string)
	for _, ent := range strings.Split(s, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, addr, ok := strings.Cut(ent, "=")
		if !ok {
			name, addr = "m-"+strings.NewReplacer(":", "-", "/", "-").Replace(ent), ent
		}
		if name == "" || addr == "" {
			return nil, fmt.Errorf("pianode: bad -peers entry %q (want name=host:port)", ent)
		}
		if prev, dup := peers[name]; dup {
			return nil, fmt.Errorf("pianode: duplicate -peers name %q (%s and %s)", name, prev, addr)
		}
		peers[name] = addr
	}
	return peers, nil
}

// parseMigrate parses "component:dest@virtualtime" where virtualtime
// is a Go duration measured from virtual zero, e.g. "hot:bravo@50ms".
func parseMigrate(s string) (comp, dest string, at vtime.Time, err error) {
	spec, atStr, ok := strings.Cut(s, "@")
	if !ok {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate %q (want component:dest@virtualtime)", s)
	}
	comp, dest, ok = strings.Cut(spec, ":")
	if !ok || comp == "" || dest == "" {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate %q (want component:dest@virtualtime)", s)
	}
	d, err := time.ParseDuration(atStr)
	if err != nil {
		return "", "", 0, fmt.Errorf("pianode: bad -mesh-migrate time %q: %v", atStr, err)
	}
	return comp, dest, vtime.Time(d.Nanoseconds()), nil
}

// reportLine renders one structured run-report line from the node's
// race-safe accessors: virtual progress, scheduler counters, wire
// and session totals. One line per -report interval, logfmt-style,
// so a long-running vendor node can be tailed without a scraper.
func reportLine(sub *core.Subsystem, n *node.Node) string {
	now, key := sub.PublishedTimes()
	st := sub.Stats()
	ws := n.WireStats()
	rs := n.ResilienceStats()
	total, alive := n.SessionHealth()
	keyStr := "inf"
	if key != vtime.Infinity {
		keyStr = fmt.Sprintf("%d", int64(key))
	}
	return fmt.Sprintf("pia-report t=%s vnow=%d vnext=%s steps=%d deliveries=%d drives=%d stalls=%d par_rounds=%d "+
		"frames_out=%d frames_in=%d bytes_out=%d bytes_in=%d sessions=%d/%d epoch_deaths=%d resumes=%d rewinds=%d",
		time.Now().UTC().Format("15:04:05.000"), int64(now), keyStr,
		st.Steps, st.Deliveries, st.Drives, st.Stalls, st.ParRounds,
		ws.FramesOut, ws.FramesIn, ws.BytesOut, ws.BytesIn,
		alive, total, rs.EpochDeaths, rs.Resumes, rs.Rewinds)
}
