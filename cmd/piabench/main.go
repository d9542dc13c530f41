// piabench regenerates the paper's evaluation from the command line:
// Table 1 and the Fig. 1-6 scenarios, plus the ablations the design
// document calls out. Each experiment prints the rows the paper
// reports (or the structural facts a figure shows).
//
//	piabench -exp table1
//	piabench -exp chaos -seed 42
//	piabench -exp fig1|fig2|fig3|fig4|fig5|fig6
//	piabench -exp runlevel|policy|checkpoint|incremental|snapshot|memsync
//	piabench -exp all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"text/tabwriter"
	"time"

	pia "repro"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/vtime"
	"repro/internal/wubbleu"
)

// jsonOut, when non-empty, receives the Table 1 rows (including the
// coalesced remote row) as machine-readable JSON — the perf
// trajectory later changes are compared against.
var jsonOut string

// chaosSeed fixes the fault schedule of -exp chaos; the same seed
// reproduces the same drops, reorders and partition, frame for frame.
var chaosSeed int64

// timelineOut, when non-empty, makes -exp chaos (and -exp timeline)
// run the instrumented chaos leg and write its merged canonical
// Perfetto trace to this file.
var timelineOut string

// benchWorkers sizes the scheduler worker pool of every experiment
// that honours it (table1 and the parallel sweep's Table 1 legs).
var benchWorkers int

// benchOptimism, when > 0, overrides the Time Warp window (virtual
// ns) of the optimistic ablation's speculative legs.
var benchOptimism int64

// reportEvery, when > 0, prints one structured run-report line at
// that interval while a metrics-wired experiment leg is running.
var reportEvery time.Duration

// curReg is the registry of the experiment leg currently running —
// what the -report ticker snapshots. Each leg swaps in its own fresh
// registry so successive legs never stack collectors.
var curReg atomic.Pointer[pia.MetricsRegistry]

// collectMetrics reports whether experiment legs should wire a
// metrics registry: when the JSON output wants the unified metrics
// block, or the -report ticker needs something to read.
func collectMetrics() bool { return jsonOut != "" || reportEvery > 0 }

// metricsHooks returns the Table1Config wiring for metrics-aware
// runs: collection on, each leg's registry published to the ticker.
func metricsHooks(cfg *experiments.Table1Config) {
	if !collectMetrics() {
		return
	}
	cfg.CollectMetrics = true
	cfg.OnMetrics = func(r *pia.MetricsRegistry) { curReg.Store(r) }
}

// startReporter launches the -report ticker: one line per interval
// from the current leg's registry, restricted to the scheduler and
// wire series so the line stays tailable (the full set is in -json).
func startReporter() {
	if reportEvery <= 0 {
		return
	}
	t := time.NewTicker(reportEvery)
	go func() {
		for range t.C {
			r := curReg.Load()
			if r == nil {
				continue
			}
			var line []pia.MetricSample
			for _, s := range r.Snapshot() {
				if strings.HasPrefix(s.Name, "pia_sched_") || strings.HasPrefix(s.Name, "pia_wire_") {
					line = append(line, s)
				}
			}
			fmt.Println(metrics.ReportLine(time.Now(), line))
		}
	}()
}

func main() {
	exp := flag.String("exp", "table1", "experiment to run (table1, chaos, timeline, coalesce, parallel, optimistic, migrate, sessions, obs, fig1..fig6, runlevel, policy, checkpoint, incremental, snapshot, memsync, all)")
	pageKB := flag.Int("page", 66, "page size in KB for WubbleU experiments")
	flag.StringVar(&jsonOut, "json", "", "write Table 1 (or -exp parallel) results to this file as JSON (e.g. BENCH_1.json)")
	flag.Int64Var(&chaosSeed, "seed", 1, "fault-schedule seed for -exp chaos")
	flag.IntVar(&benchWorkers, "workers", 0, "scheduler worker-pool size per subsystem (0 = sequential)")
	flag.Int64Var(&benchOptimism, "optimism", 0, "override the Time Warp window in virtual ns for -exp optimistic (0 = experiment default)")
	flag.DurationVar(&reportEvery, "report", 0, "print a structured run-report line at this interval while legs run (0 = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the experiment to this file")
	flag.StringVar(&timelineOut, "timeline", "", "write the merged canonical Perfetto timeline of the chaos run to this file (with -exp chaos or -exp timeline)")
	flag.Parse()
	startReporter()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("-cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("-memprofile: %v", err)
			}
		}()
	}

	runners := map[string]func(int) error{
		"table1":      table1,
		"chaos":       chaos,
		"timeline":    timelineExp,
		"coalesce":    coalesce,
		"parallel":    parallel,
		"optimistic":  optimisticExp,
		"migrate":     migrateExp,
		"sessions":    sessionsExp,
		"obs":         obsExp,
		"fig1":        fig1,
		"fig2":        fig2,
		"fig3":        fig3,
		"fig4":        fig4,
		"fig5":        fig5,
		"fig6":        fig6,
		"runlevel":    runlevel,
		"policy":      policy,
		"checkpoint":  checkpoint,
		"incremental": incremental,
		"snapshot":    snapshotScale,
		"memsync":     memsync,
	}
	if *exp == "all" {
		for _, name := range []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
			"runlevel", "policy", "checkpoint", "incremental", "snapshot", "memsync"} {
			fmt.Printf("\n================ %s ================\n", name)
			if err := runners[name](*pageKB); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		log.Fatalf("unknown experiment %q", *exp)
	}
	if err := run(*pageKB); err != nil {
		log.Fatal(err)
	}
}

func tw() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func table1(pageKB int) error {
	fmt.Printf("Table 1: time and simulation overhead on several configurations of the WubbleU example (%d KB page)\n\n", pageKB)
	cfg := experiments.Table1Config{PageSize: pageKB * 1024, Images: 4, Workers: benchWorkers}
	metricsHooks(&cfg)
	rows, err := experiments.Table1(cfg)
	if err != nil {
		return err
	}
	// One extra row beyond the paper: the remote word level with
	// egress coalescing — same workload, batched wire frames.
	cfg.Coalesce = pia.DefaultCoalesce
	co, err := experiments.Remote(cfg, "wordLevel")
	if err != nil {
		return err
	}
	co.Location = "remote+coalesce"
	if rows[0].Wall > 0 {
		co.Overhead = float64(co.Wall) / float64(rows[0].Wall)
	}
	rows = append(rows, co)
	w := tw()
	fmt.Fprintln(w, "Location\tDetail level\tsimulation time\tvirtual load\tlink drives\twire frames\twire bytes\toverhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%v\t%v\t%d\t%d\t%d\t%.0fx\n", r.Location, r.Level, r.Wall, r.Virt, r.Drives, r.FramesOut, r.WireBytesOut, r.Overhead)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return writeJSON(cfg, rows)
}

// chaos runs the Table 1 remote word-level workload clean and then
// under seeded WAN faults with session recovery, and reports the
// paper-level invariant: identical virtual time and link drives, all
// the damage absorbed in wall clock.
func chaos(pageKB int) error {
	fmt.Printf("Chaos: remote word level under deterministic WAN faults (seed %d, %d KB page)\n\n", chaosSeed, pageKB)
	cfg := experiments.ChaosConfig{
		Table1Config: experiments.Table1Config{PageSize: pageKB * 1024, Images: 4},
		Seed:         chaosSeed,
	}
	clean, faulty, err := experiments.Chaos(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\twall\tvirtual load\tlink drives\tfaults injected\tepoch deaths\tresumes\treplayed\trewinds")
	for _, r := range []experiments.ChaosRow{clean, faulty} {
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%d\t%d\t%d\t%d\n",
			r.Mode, r.Wall, r.Virt, r.Drives, r.Injected(),
			r.Resil.EpochDeaths, r.Resil.Resumes, r.Resil.ReplayedFrames, r.Resil.Rewinds)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nresult invariant holds: virtual time %v and %d drives identical across legs\n", faulty.Virt, faulty.Drives)
	fmt.Printf("fault mix: %d dropped, %d duplicated, %d reordered, %d corrupted, %d partition cuts (schedule digests verified)\n",
		faulty.Faults.Dropped, faulty.Faults.Duplicated, faulty.Faults.Reordered, faulty.Faults.Corrupted, faulty.Faults.Cuts)
	if timelineOut != "" {
		return writeChaosTimeline(cfg)
	}
	return nil
}

// writeChaosTimeline runs the instrumented chaos leg (with the
// scripted rewind) and writes the merged canonical Perfetto trace.
func writeChaosTimeline(cfg experiments.ChaosConfig) error {
	res, err := experiments.ChaosTimeline(cfg)
	if err != nil {
		return err
	}
	if err := os.WriteFile(timelineOut, res.Trace, 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s: %d canonical events, %d cross-node flows (%d paired deliveries), %d rewind marker(s) — open at ui.perfetto.dev\n",
		timelineOut, res.Canonical, res.Flows, res.Delivers, res.Rewinds)
	return nil
}

// timelineExp measures timeline overhead on the Table 1 remote
// word-level leg: same workload, recorders off and on; virtual results
// must be identical. With -timeline it also writes the merged chaos
// trace.
func timelineExp(pageKB int) error {
	fmt.Printf("Timeline overhead: remote word level, %d KB page, recorders off vs on\n\n", pageKB)
	cfg := experiments.Table1Config{PageSize: pageKB * 1024, Images: 4, Workers: benchWorkers}
	off, on, err := experiments.TimelineOverhead(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "Location\tsimulation time\tvirtual load\tlink drives\ttimeline events")
	for _, r := range []experiments.Table1Row{off, on} {
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\n", r.Location, r.Wall, r.Virt, r.Drives, r.TimelineEvents)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if off.Wall > 0 {
		fmt.Printf("\nwall ratio on/off: %.3fx; virtual results bit-identical\n", float64(on.Wall)/float64(off.Wall))
	}
	if timelineOut != "" {
		return writeChaosTimeline(experiments.ChaosConfig{
			Table1Config: experiments.Table1Config{PageSize: pageKB * 1024, Images: 4},
			Seed:         chaosSeed,
		})
	}
	return nil
}

// coalesce runs the coalescing ablation alone: remote word level,
// frames and wall with and without batching on identical workloads.
func coalesce(pageKB int) error {
	fmt.Printf("Coalescing ablation: remote word level, %d KB page\n\n", pageKB)
	cfg := experiments.Table1Config{PageSize: pageKB * 1024, Images: 4}
	metricsHooks(&cfg)
	off, on, err := experiments.CoalescingAblation(cfg, "wordLevel")
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "Location\tsimulation time\tlink drives\twire frames\twire bytes")
	for _, r := range []experiments.Table1Row{off, on} {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%d\n", r.Location, r.Wall, r.Drives, r.FramesOut, r.WireBytesOut)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if on.FramesOut > 0 {
		fmt.Printf("\nframe reduction: %.1fx, wall: %v -> %v\n",
			float64(off.FramesOut)/float64(on.FramesOut), off.Wall, on.Wall)
	}
	return writeJSON(cfg, []experiments.Table1Row{off, on})
}

// parallel sweeps the safe-horizon worker pool over a fan-out
// workload whose services model wall-clock latency (remote probes),
// then cross-checks the Table 1 local word-level leg with 4 workers.
// Any divergence in virtual time, drive counts or the drive digest
// between a parallel leg and the sequential reference is an error.
func parallel(pageKB int) error {
	cfg := experiments.DefaultParallelConfig()
	cfg.PageKB = pageKB
	fmt.Printf("Parallel scheduler: %d services x %d jobs, %v service latency each\n\n",
		cfg.Fanout, cfg.Rounds, cfg.Service)
	rows, table, err := experiments.Parallel(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\twall\tvirtual\tdrives\tparallel rounds\tdrive digest\tspeedup")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\t%d\t%016x\t%.2fx\n",
			r.Mode, r.Wall, r.Virt, r.Drives, r.ParRounds, r.Digest, r.Speedup)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nTable 1 cross-check (local, word level):")
	w = tw()
	fmt.Fprintln(w, "Location\tsimulation time\tvirtual load\tlink drives")
	for _, r := range table {
		fmt.Fprintf(w, "%s\t%v\t%v\t%d\n", r.Location, r.Wall, r.Virt, r.Drives)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nresult invariant holds: virtual results identical at every worker count")
	return writeParallelJSON(cfg, rows, table)
}

// parallelRow is the machine-readable form of one sweep leg.
type parallelRow struct {
	Mode      string  `json:"mode"`
	Workers   int     `json:"workers"`
	WallNS    int64   `json:"wall_ns"`
	VirtualNS int64   `json:"virtual_ns"`
	Drives    int64   `json:"drives"`
	ParRounds int64   `json:"parallel_rounds"`
	Digest    string  `json:"drive_digest"`
	Speedup   float64 `json:"speedup"`
}

func writeParallelJSON(cfg experiments.ParallelConfig, rows []experiments.ParallelRow, table []experiments.Table1Row) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment string        `json:"experiment"`
		Fanout     int           `json:"fanout"`
		Rounds     int           `json:"rounds"`
		ServiceNS  int64         `json:"service_ns"`
		Rows       []parallelRow `json:"rows"`
		Table      []benchRow    `json:"table1_local"`
	}{Experiment: "parallel", Fanout: cfg.Fanout, Rounds: cfg.Rounds, ServiceNS: cfg.Service.Nanoseconds()}
	for _, r := range rows {
		out.Rows = append(out.Rows, parallelRow{
			Mode:      r.Mode,
			Workers:   r.Workers,
			WallNS:    r.Wall.Nanoseconds(),
			VirtualNS: int64(r.Virt),
			Drives:    r.Drives,
			ParRounds: r.ParRounds,
			Digest:    fmt.Sprintf("%016x", r.Digest),
			Speedup:   r.Speedup,
		})
	}
	for _, r := range table {
		out.Table = append(out.Table, benchRow{
			Location:   r.Location,
			Level:      r.Level,
			WallNS:     r.Wall.Nanoseconds(),
			VirtualNS:  int64(r.Virt),
			LinkDrives: r.Drives,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

// sessionsExp benchmarks the multi-tenant session service: steady
// legs holding the full tenant population live at each shared-pool
// size, a concurrent create/run/stop churn leg, and the
// admission/eviction determinism probes. Per-session drive digests
// are asserted bit-identical to isolated single-session runs inside
// experiments.Sessions; any divergence fails the run. -workers, when
// set, replaces the default 0/2/4 steady sweep with {0, workers}.
func sessionsExp(int) error {
	cfg := experiments.DefaultSessionsConfig()
	if benchWorkers > 0 {
		cfg.Workers = []int{0, benchWorkers}
	}
	fmt.Printf("Multi-tenant session service: %d tenants steady-state, %d churned by %d clients (fan %dx%d)\n\n",
		cfg.Sessions, cfg.Churn, cfg.Clients, cfg.Fanout, cfg.Rounds)
	rows, err := experiments.Sessions(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "leg\tworkers\tsessions\tpeak live\twall\tsessions/sec\tdigests\trejected\tevicted")
	for _, r := range rows {
		rate := ""
		if r.SessionsPerSec > 0 {
			rate = fmt.Sprintf("%.0f", r.SessionsPerSec)
		}
		ok := "identical"
		if !r.DigestsOK {
			ok = "DIVERGED"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\t%s\t%s\t%d\t%d\n",
			r.Leg, r.Workers, r.Sessions, r.PeakLive, r.Wall.Round(time.Millisecond), rate, ok, r.Rejected, r.Evicted)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nresult invariant holds: per-session digests identical to isolated runs at every worker count")
	return writeSessionsJSON(cfg, rows)
}

// sessionsRow is the machine-readable form of one sessions leg.
type sessionsRow struct {
	Leg            string  `json:"leg"`
	Workers        int     `json:"workers"`
	Sessions       int     `json:"sessions"`
	PeakLive       int     `json:"peak_live"`
	WallNS         int64   `json:"wall_ns"`
	SessionsPerSec float64 `json:"sessions_per_sec,omitempty"`
	Steps          int64   `json:"steps,omitempty"`
	DigestsOK      bool    `json:"digests_identical"`
	Rejected       int64   `json:"rejected,omitempty"`
	Evicted        int64   `json:"evicted,omitempty"`
	EvictChunk     int     `json:"evict_chunk,omitempty"`
	EvictSteps     int64   `json:"evict_steps,omitempty"`
}

func writeSessionsJSON(cfg experiments.SessionsConfig, rows []experiments.SessionsRow) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment string        `json:"experiment"`
		Sessions   int           `json:"sessions"`
		Churn      int           `json:"churn"`
		Clients    int           `json:"clients"`
		Fanout     int           `json:"fanout"`
		Rounds     int           `json:"rounds"`
		Seeds      int           `json:"seeds"`
		Rows       []sessionsRow `json:"rows"`
	}{Experiment: "sessions", Sessions: cfg.Sessions, Churn: cfg.Churn, Clients: cfg.Clients,
		Fanout: cfg.Fanout, Rounds: cfg.Rounds, Seeds: cfg.Seeds}
	for _, r := range rows {
		out.Rows = append(out.Rows, sessionsRow{
			Leg:            r.Leg,
			Workers:        r.Workers,
			Sessions:       r.Sessions,
			PeakLive:       r.PeakLive,
			WallNS:         r.Wall.Nanoseconds(),
			SessionsPerSec: r.SessionsPerSec,
			Steps:          r.Steps,
			DigestsOK:      r.DigestsOK,
			Rejected:       r.Rejected,
			Evicted:        r.Evicted,
			EvictChunk:     r.EvictChunk,
			EvictSteps:     r.EvictSteps,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

// obsExp measures the observability overhead: the remote word-level
// leg and a steady multi-tenant sessions leg, each bare and then with
// the full flight stack attached (flight recorder, sampler, a live
// SSE /watch subscriber over real HTTP, per-component cost
// attribution). Virtual results must not move; experiments.Obs errors
// on any divergence. -workers sizes the remote leg's pools.
func obsExp(pageKB int) error {
	cfg := experiments.DefaultObsConfig()
	cfg.Table1 = experiments.Table1Config{PageSize: pageKB * 1024, Images: 4, Workers: benchWorkers}
	fmt.Printf("Observability overhead: flight recorder + /watch streaming + cost attribution, off vs on (%d KB page, %d tenants)\n\n",
		pageKB, cfg.Sessions.Sessions)
	rows, err := experiments.Obs(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "leg\tworkers\twall off\twall on\toverhead\tdigests\tframes streamed\tring recorded\tdropped")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%v\t%v\t%+.1f%%\t%s\t%d\t%d\t%d\n",
			r.Leg, r.Workers, r.OffWall.Round(time.Millisecond), r.OnWall.Round(time.Millisecond),
			r.OverheadPct, matchWord(r.DigestsOK), r.EventsStreamed, r.RingRecorded, r.Dropped)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nresult invariant holds: virtual results bit-identical with observers attached")
	return writeObsJSON(cfg, rows)
}

// obsRow is the machine-readable form of one observability leg.
type obsRow struct {
	Leg            string  `json:"leg"`
	Workers        int     `json:"workers"`
	OffWallNS      int64   `json:"off_wall_ns"`
	OnWallNS       int64   `json:"on_wall_ns"`
	OverheadPct    float64 `json:"overhead_pct"`
	DigestsOK      bool    `json:"digests_identical"`
	VirtualNS      int64   `json:"virtual_ns,omitempty"`
	LinkDrives     int     `json:"link_drives,omitempty"`
	Steps          int64   `json:"steps,omitempty"`
	EventsStreamed uint64  `json:"frames_streamed"`
	RingRecorded   uint64  `json:"ring_recorded"`
	Dropped        uint64  `json:"subscribers_dropped"`
}

func writeObsJSON(cfg experiments.ObsConfig, rows []experiments.ObsRow) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment      string   `json:"experiment"`
		PageBytes       int      `json:"page_bytes"`
		Sessions        int      `json:"sessions"`
		Runs            int      `json:"runs"`
		WatchIntervalNS int64    `json:"watch_interval_ns"`
		AttributionTopN int      `json:"attribution_top_n"`
		Rows            []obsRow `json:"rows"`
	}{Experiment: "obs", PageBytes: cfg.Table1.PageSize, Sessions: cfg.Sessions.Sessions,
		Runs: cfg.Runs, WatchIntervalNS: cfg.WatchInterval.Nanoseconds(), AttributionTopN: cfg.TopN}
	for _, r := range rows {
		out.Rows = append(out.Rows, obsRow{
			Leg:            r.Leg,
			Workers:        r.Workers,
			OffWallNS:      r.OffWall.Nanoseconds(),
			OnWallNS:       r.OnWall.Nanoseconds(),
			OverheadPct:    r.OverheadPct,
			DigestsOK:      r.DigestsOK,
			VirtualNS:      int64(r.Virt),
			LinkDrives:     r.Drives,
			Steps:          r.Steps,
			EventsStreamed: r.EventsStreamed,
			RingRecorded:   r.RingRecorded,
			Dropped:        r.Dropped,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

// optimisticExp runs the Time Warp ablation: lookahead (high, low,
// zero probe-bus delay) crossed with scheduling mode (conservative vs
// optimistic) and worker-pool size over a fan-out probe workload whose
// services model wall-clock latency. Every leg must match its
// lookahead's sequential reference bit-for-bit; the headline is the
// optimistic-vs-conservative wall-clock ratio per leg — near 1x when
// lookahead already fills the rounds, the worker count when it
// doesn't.
func optimisticExp(int) error {
	cfg := experiments.DefaultOptimisticConfig()
	if benchOptimism > 0 {
		cfg.Window = vtime.Duration(benchOptimism)
	}
	fmt.Printf("Optimistic scheduler: %d probe services x %d batches, %v wall latency per job, window %dns\n\n",
		cfg.Fanout, cfg.Rounds, cfg.Service, int64(cfg.Window))
	rows, err := experiments.Optimistic(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "lookahead\tmode\tworkers\twall\tpar rounds\tspec rounds\tcommits\trollbacks\tcommit ratio\tspeedup\tvs conservative")
	for _, r := range rows {
		vs := ""
		if r.VsCons > 0 {
			vs = fmt.Sprintf("%.2fx", r.VsCons)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%v\t%d\t%d\t%d\t%d\t%.2f\t%.2fx\t%s\n",
			r.Lookahead, r.Mode, r.Workers, r.Wall, r.ParRounds, r.SpecRounds,
			r.SpecCommits, r.Rollbacks, r.CommitRatio, r.Speedup, vs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("\nresult invariant holds: virtual results identical across mode, workers and window")
	return writeOptimisticJSON(cfg, rows)
}

// optimisticRow is the machine-readable form of one ablation leg.
type optimisticRow struct {
	Lookahead   string  `json:"lookahead"`
	Mode        string  `json:"mode"`
	Workers     int     `json:"workers"`
	WallNS      int64   `json:"wall_ns"`
	VirtualNS   int64   `json:"virtual_ns"`
	Drives      int64   `json:"drives"`
	ParRounds   int64   `json:"parallel_rounds"`
	SpecRounds  int64   `json:"spec_rounds"`
	SpecCommits int64   `json:"spec_commits"`
	Rollbacks   int64   `json:"rollbacks"`
	RolledBack  int64   `json:"rolled_back_events"`
	CommitRatio float64 `json:"commit_ratio"`
	Digest      string  `json:"drive_digest"`
	Speedup     float64 `json:"speedup_vs_sequential"`
	VsCons      float64 `json:"speedup_vs_conservative,omitempty"`
}

func writeOptimisticJSON(cfg experiments.OptimisticConfig, rows []experiments.OptimisticRow) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment string          `json:"experiment"`
		Fanout     int             `json:"fanout"`
		Rounds     int             `json:"rounds"`
		ServiceNS  int64           `json:"service_ns"`
		WindowNS   int64           `json:"window_ns"`
		Rows       []optimisticRow `json:"rows"`
	}{Experiment: "optimistic", Fanout: cfg.Fanout, Rounds: cfg.Rounds,
		ServiceNS: cfg.Service.Nanoseconds(), WindowNS: int64(cfg.Window)}
	for _, r := range rows {
		out.Rows = append(out.Rows, optimisticRow{
			Lookahead:   r.Lookahead,
			Mode:        r.Mode,
			Workers:     r.Workers,
			WallNS:      r.Wall.Nanoseconds(),
			VirtualNS:   int64(r.Virt),
			Drives:      r.Drives,
			ParRounds:   r.ParRounds,
			SpecRounds:  r.SpecRounds,
			SpecCommits: r.SpecCommits,
			Rollbacks:   r.Rollbacks,
			RolledBack:  r.RolledBack,
			CommitRatio: r.CommitRatio,
			Digest:      fmt.Sprintf("%016x", r.Digest),
			Speedup:     r.Speedup,
			VsCons:      r.VsCons,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

// migrateExp runs the live-migration experiment: the 3-member mesh
// demo workload stationary, with a mid-run migration of the hot
// component, and with the migration under seeded WAN faults. The
// headline is zero virtual downtime and bit-identical drive digests
// across all legs; the measured costs are the migration's wall-clock
// span and the placement-epoch propagation latency.
func migrateExp(int) error {
	fmt.Printf("Live migration: 3-member mesh, hot component moved mid-run (chaos seed %d)\n\n", chaosSeed)
	cfg := experiments.MigrateConfig{Seed: chaosSeed}
	rows, err := experiments.Migrate(cfg)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\twall\trounds\treissues\tmigrations\tepoch\tvirtual downtime\tmigration wall\tepoch propagation\tdigests")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%d\t%d\t%dns\t%v\t%v\t%s\n",
			r.Mode, r.Wall.Round(time.Millisecond), r.Rounds, r.Reissues, r.Migrations, r.Epoch,
			int64(r.VirtualDowntime), r.MigrationWall, r.EpochPropagation, matchWord(r.DigestsMatch))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("\nresult invariant holds: %d drive digests bit-identical across stationary, migrated and chaos legs\n",
		len(rows[0].Digests))
	return writeMigrateJSON(cfg, rows)
}

func matchWord(ok bool) string {
	if ok {
		return "identical"
	}
	return "DIVERGED"
}

// migrateRow is the machine-readable form of one migration leg.
type migrateRow struct {
	Mode               string            `json:"mode"`
	WallNS             int64             `json:"wall_ns"`
	Rounds             int64             `json:"rounds"`
	Reissues           int64             `json:"reissues"`
	Migrations         int64             `json:"migrations"`
	Epoch              uint64            `json:"epoch"`
	VirtualDowntimeNS  int64             `json:"virtual_downtime_ns"`
	MigrationWallNS    int64             `json:"migration_wall_ns"`
	EpochPropagationNS int64             `json:"epoch_propagation_ns"`
	DigestsMatch       bool              `json:"digests_match"`
	Digests            map[string]string `json:"digests"`
}

func writeMigrateJSON(cfg experiments.MigrateConfig, rows []experiments.MigrateRow) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment string       `json:"experiment"`
		Seed       int64        `json:"seed"`
		Rows       []migrateRow `json:"rows"`
	}{Experiment: "migrate", Seed: cfg.Seed}
	for _, r := range rows {
		jr := migrateRow{
			Mode:               r.Mode,
			WallNS:             r.Wall.Nanoseconds(),
			Rounds:             r.Rounds,
			Reissues:           r.Reissues,
			Migrations:         r.Migrations,
			Epoch:              r.Epoch,
			VirtualDowntimeNS:  int64(r.VirtualDowntime),
			MigrationWallNS:    r.MigrationWall.Nanoseconds(),
			EpochPropagationNS: r.EpochPropagation.Nanoseconds(),
			DigestsMatch:       r.DigestsMatch,
			Digests:            map[string]string{},
		}
		for _, comp := range experiments.DigestComponents(r.Digests) {
			jr.Digests[comp] = fmt.Sprintf("%016x", r.Digests[comp])
		}
		out.Rows = append(out.Rows, jr)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

// benchRow is the machine-readable form of one Table 1 row.
type benchRow struct {
	Location     string  `json:"location"`
	Level        string  `json:"level"`
	WallNS       int64   `json:"wall_ns"`
	VirtualNS    int64   `json:"virtual_ns"`
	LinkDrives   int     `json:"link_drives"`
	FramesOut    int64   `json:"frames_out"`
	WireBytesOut int64   `json:"wire_bytes_out"`
	Overhead     float64 `json:"overhead"`
}

func writeJSON(cfg experiments.Table1Config, rows []experiments.Table1Row) error {
	if jsonOut == "" {
		return nil
	}
	out := struct {
		Experiment string     `json:"experiment"`
		PageBytes  int        `json:"page_bytes"`
		Images     int        `json:"images"`
		Rows       []benchRow `json:"rows"`
		// Metrics is the unified metrics block: the full registry
		// snapshot of the last metrics-wired leg (scheduler counters
		// and lag gauges, channel endpoints, wire conns, fault links,
		// sessions).
		Metrics []pia.MetricSample `json:"metrics,omitempty"`
	}{Experiment: "table1", PageBytes: cfg.PageSize, Images: cfg.Images}
	for _, r := range rows {
		if r.Metrics != nil {
			out.Metrics = r.Metrics
		}
	}
	for _, r := range rows {
		out.Rows = append(out.Rows, benchRow{
			Location:     r.Location,
			Level:        r.Level,
			WallNS:       r.Wall.Nanoseconds(),
			VirtualNS:    int64(r.Virt),
			LinkDrives:   r.Drives,
			FramesOut:    r.FramesOut,
			WireBytesOut: r.WireBytesOut,
			Overhead:     r.Overhead,
		})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", jsonOut)
	return nil
}

func fig1(int) error {
	fmt.Println("Fig 1: several Pia nodes connected through the network —")
	fmt.Println("two subsystem nodes over TCP plus a remote hardware connection.")
	res, err := experiments.Fig1()
	if err != nil {
		return err
	}
	fmt.Printf("  page loads completed: %d\n", res.Loads)
	fmt.Printf("  interrupts forwarded from remote hardware: %d\n", res.HWInterrupts)
	fmt.Printf("  wall clock: %v\n", res.Wall)
	return nil
}

func fig2(int) error {
	fmt.Println("Fig 2: a net split across two subsystems gets hidden ports owned by channel components.")
	splits, err := experiments.Fig2()
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "net\tcrossing\tfragments")
	for _, s := range splits {
		fmt.Fprintf(w, "%s\t%v\t%v\n", s.Net, s.Crossing, s.Fragments)
	}
	return w.Flush()
}

func fig3(int) error {
	fmt.Println("Fig 3: Subsystem 1 must stall to maintain continuous consistency (or run optimistically and restore).")
	rows, err := experiments.Fig3(50, 20000)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "policy\twall\tdelivered\tstalls\trestores\tstragglers")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%d\t%d\n", r.Policy, r.Wall, r.Delivered, r.Stalls, r.Restores, r.Stragglers)
	}
	return w.Flush()
}

func fig4(int) error {
	fmt.Println("Fig 4: SS1 obtains safe times from both SS2 and SS3 before advancing.")
	res, err := experiments.Fig4(20)
	if err != nil {
		return err
	}
	fmt.Printf("  asks to SS2: %d (grants back: %d)\n", res.AsksToSS2, res.GrantsFromSS2)
	fmt.Printf("  asks to SS3: %d (grants back: %d)\n", res.AsksToSS3, res.GrantsFromSS3)
	fmt.Printf("  deliveries: %d, causality violations: %v\n", res.Delivered, res.Violations)
	return nil
}

func fig5(int) error {
	fmt.Println("Fig 5: the WubbleU communication flow graph (module -> module over net).")
	w := tw()
	fmt.Fprintln(w, "net\tendpoints")
	for net, ends := range wubbleu.CommunicationGraph() {
		fmt.Fprintf(w, "%s\t%s <-> %s\n", net, ends[0], ends[1])
	}
	return w.Flush()
}

func fig6(pageKB int) error {
	fmt.Println("Fig 6: the studied architecture — all processes on the CPU except the")
	fmt.Println("network interface on the cellular ASIC; its simulation topology places")
	fmt.Println("the ASIC (and the server behind the wireless link) on the remote subsystem:")
	pl := wubbleu.RemotePlacement()
	fmt.Printf("  CPU subsystem    %q: ui, recog, browser, cache, jpeg\n", pl.CPU)
	fmt.Printf("  remote subsystem %q: asic (network interface, DMA), server\n", pl.Modem)
	row, err := experiments.Remote(experiments.Table1Config{PageSize: pageKB * 1024, Images: 4}, "packetLevel")
	if err != nil {
		return err
	}
	fmt.Printf("  smoke run (remote, packet): %v wall, %v virtual\n", row.Wall, row.Virt)
	return nil
}

func runlevel(pageKB int) error {
	fmt.Println("Dynamic detail switching: fixed word vs fixed packet vs switchpoint mid-run (2 loads).")
	rows, err := experiments.RunlevelSwitch(pageKB * 1024)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\twall\tlink drives")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%v\t%d\n", r.Mode, r.Wall, r.Drives)
	}
	return w.Flush()
}

func policy(int) error {
	fmt.Println("Channel policy sweep: conservative vs optimistic across communication densities.")
	rows, err := experiments.PolicySweep(50, 20000, []vtime.Duration{20, 200, 2000})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "period\tpolicy\twall\tstalls\trestores\tstragglers")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%s\t%v\t%d\t%d\t%d\n", r.Period, r.Policy, r.Wall, r.Stalls, r.Restores, r.Stragglers)
	}
	return w.Flush()
}

func checkpoint(int) error {
	fmt.Println("Checkpoint interval vs rollback replay cost.")
	rows, err := experiments.CheckpointInterval(20000, []vtime.Duration{10, 100, 1000, 10000})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "interval\tcheckpoints\treplay steps\twall")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%d\t%d\t%v\n", r.Interval, r.Checkpoints, r.ReplaySteps, r.Wall)
	}
	return w.Flush()
}

func incremental(int) error {
	fmt.Println("Full vs incremental checkpoints (the paper's future work).")
	rows, err := experiments.IncrementalCheckpoint(256, 20)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\tcheckpoints\ttotal bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\n", r.Mode, r.Checkpoints, r.TotalBytes)
	}
	return w.Flush()
}

func snapshotScale(int) error {
	fmt.Println("Chandy-Lamport snapshot completion vs subsystem count.")
	rows, err := experiments.SnapshotScale([]int{2, 4, 8, 16})
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "subsystems\twall\tin-flight captured")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%v\t%d\n", r.Subsystems, r.Wall, r.InFlight)
	}
	return w.Flush()
}

func memsync(int) error {
	fmt.Println("Interrupt consistency: static synchronous marking vs optimistic with rewind.")
	rows, err := experiments.Memsync(2000, 10)
	if err != nil {
		return err
	}
	w := tw()
	fmt.Fprintln(w, "mode\tviolations\trestores\tdynamically marked\twall")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%v\n", r.Mode, r.Violations, r.Restores, r.SyncMarked, r.Wall)
	}
	return w.Flush()
}
