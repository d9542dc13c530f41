package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strings"
)

// blockRate is the block-profile sampling rate in nanoseconds: waits at
// least this long are all recorded, shorter ones are sampled without
// bias by the runtime.
const blockRate = 10_000

// cpuPkgs maps the packages whose self CPU time is reported on its own
// to their bucket.
var cpuPkgs = map[string]string{
	"repro/internal/core":     "core",
	"repro/internal/event":    "event",
	"repro/internal/channel":  "channel",
	"repro/internal/wire":     "wire",
	"encoding/gob":            "gob",
	"repro/internal/node":     "node",
	"repro/internal/proto":    "proto",
	"repro/internal/wubbleu":  "wubbleu",
	"repro/internal/service":  "service",
	"repro/internal/metrics":  "obs",
	"repro/internal/flight":   "obs",
	"repro/internal/timeline": "obs",
}

var cpuBuckets = []string{"core", "event", "channel", "wire", "gob", "node", "proto", "wubbleu", "service", "obs", "runtime_gc", "syscall", "other"}

// gcFrames are the runtime entry points of garbage collection work; a
// CPU sample with one of them anywhere on its stack is GC time.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker":    true,
	"runtime.gcAssistAlloc":     true,
	"runtime.gcDrain":           true,
	"runtime.markroot":          true,
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.gcStart":           true,
	"runtime.gcMarkDone":        true,
	"runtime.gcMarkTermination": true,
}

// syscallLeaves are runtime leaf functions that enter the kernel.
var syscallLeaves = map[string]bool{
	"runtime.futex":     true,
	"runtime.epollwait": true,
	"runtime.usleep":    true,
	"runtime.osyield":   true,
	"runtime.write1":    true,
	"runtime.read":      true,
}

// cpuBucket attributes one CPU sample: kernel entry first, then GC
// work, then the innermost frame of a bucketed package, so runtime,
// reflect and other library time is charged to the layer that called
// it.
func cpuBucket(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := stack[0]; syscallLeaves[leaf] || pkgOf(leaf) == "syscall" || pkgOf(leaf) == "internal/runtime/syscall" {
		return "syscall"
	}
	for _, fn := range stack {
		if gcFrames[fn] {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if b, ok := cpuPkgs[pkgOf(fn)]; ok {
			return b
		}
	}
	return "other"
}

var blockBuckets = []string{"core", "node", "service"}

// blockBucket attributes a blocking wait to the innermost program
// package on its stack; waits outside core, node and service are not
// reported.
func blockBucket(stack []string) string {
	for _, fn := range stack {
		p := pkgOf(fn)
		if p == "repro" || strings.HasPrefix(p, "repro/") {
			switch p {
			case "repro/internal/core":
				return "core"
			case "repro/internal/node":
				return "node"
			case "repro/internal/service":
				return "service"
			}
			return ""
		}
	}
	return ""
}

// rtNames are the runtime/metrics the traced run reads at its start
// and end.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
	"/sched/latencies:seconds",
	"/sync/mutex/wait/total:seconds",
}

// tracer holds what the traced phase collects from outside the
// program: a CPU profile, the block profile and runtime/metrics.
type tracer struct {
	cpu    bytes.Buffer
	block0 map[string]float64
	rt0    []rtmetrics.Sample
}

// traceData is the traced phase's attribution, in seconds unless
// named otherwise.
type traceData struct {
	cpu        map[string]float64
	cpuSamples int
	block      map[string]float64
	gcCPU      float64
	allocBytes float64
	heapLive   float64
	mutexWait  float64
	schedP99   float64
}

func readRuntime() []rtmetrics.Sample {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	return s
}

func startTrace() (*tracer, error) {
	t := &tracer{}
	runtime.SetBlockProfileRate(blockRate)
	b0, err := blockProfile()
	if err != nil {
		return nil, err
	}
	t.block0 = b0
	if err := pprof.StartCPUProfile(&t.cpu); err != nil {
		return nil, err
	}
	t.rt0 = readRuntime()
	return t, nil
}

// blockProfile returns the block profile's cumulative wait seconds by
// bucket.
func blockProfile() (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	if len(p.samples) == 0 {
		return out, nil
	}
	vi, err := p.valueIndex("delay")
	if err != nil {
		return nil, err
	}
	for _, s := range p.samples {
		if b := blockBucket(s.stack); b != "" {
			out[b] += float64(s.values[vi]) / 1e9
		}
	}
	return out, nil
}

func (t *tracer) stop() (traceData, error) {
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	block1, err := blockProfile()
	runtime.SetBlockProfileRate(0)
	if err != nil {
		return traceData{}, err
	}
	td := traceData{cpu: map[string]float64{}, block: map[string]float64{}}
	for _, b := range blockBuckets {
		td.block[b] = block1[b] - t.block0[b]
	}
	p, err := parseProfile(t.cpu.Bytes())
	if err != nil {
		return traceData{}, err
	}
	if len(p.samples) > 0 {
		vi, err := p.valueIndex("cpu")
		if err != nil {
			return traceData{}, err
		}
		for _, s := range p.samples {
			td.cpu[cpuBucket(s.stack)] += float64(s.values[vi]) / 1e9
			td.cpuSamples += int(s.values[0])
		}
	}
	td.allocBytes = float64(rt1[0].Value.Uint64() - t.rt0[0].Value.Uint64())
	td.gcCPU = rt1[1].Value.Float64() - t.rt0[1].Value.Float64()
	td.heapLive = float64(rt1[2].Value.Uint64())
	td.schedP99 = histQuantile(t.rt0[3].Value.Float64Histogram(), rt1[3].Value.Float64Histogram(), 0.99)
	td.mutexWait = rt1[4].Value.Float64() - t.rt0[4].Value.Float64()
	return td, nil
}

// histQuantile returns the q-quantile of the observations a runtime
// histogram gained between two reads, interpolating inside a bucket.
func histQuantile(h0, h1 *rtmetrics.Float64Histogram, q float64) float64 {
	counts := make([]float64, len(h1.Counts))
	var total float64
	for i := range counts {
		counts[i] = float64(h1.Counts[i])
		if i < len(h0.Counts) {
			counts[i] -= float64(h0.Counts[i])
		}
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * total
	var cum float64
	for i, c := range counts {
		if c > 0 && cum+c >= target {
			lo, hi := h1.Buckets[i], h1.Buckets[i+1]
			if lo < 0 || hi > 1e300 { // an unbounded edge bucket
				if lo < 0 {
					return hi
				}
				return lo
			}
			return lo + (target-cum)/c*(hi-lo)
		}
		cum += c
	}
	return h1.Buckets[len(h1.Buckets)-1]
}

// perLayer derives the per-layer breakdown of a traced phase, plus the
// overhead against the untraced phase before it.
func perLayer(w workload, plain, traced *phase, td traceData, samples map[string]int) (map[string]metric, error) {
	if traced.ok == 0 || plain.ok == 0 {
		first := traced.firstErr
		if first == nil {
			first = plain.firstErr
		}
		return nil, fmt.Errorf("no operation completed in a phase (first failure: %v)", first)
	}
	ops := float64(traced.ok)
	c := traced.count
	per := func(v float64) float64 { return v / ops }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	med := func(name string) float64 {
		if xs := traced.spans[name]; len(xs) > 0 {
			samples[name+"_s"] = len(xs)
			return median(xs)
		}
		return 0
	}
	var simulated float64
	for _, d := range traced.load {
		simulated += d
	}
	m := map[string]metric{
		"pia.build_s":                 {med("pia.build"), "s"},
		"pia.run_s":                   {med("pia.run"), "s"},
		"pia.close_s":                 {med("pia.close"), "s"},
		"service.create_s.p50":        {med("service.create"), "s"},
		"service.stop_s.p50":          {med("service.stop"), "s"},
		"service.live_peak":           {float64(traced.livePeak), "count"},
		"service.rejected":            {c["rejected"], "count"},
		"service.evicted":             {c["evicted"], "count"},
		"core.steps":                  {per(c["steps"]), "count"},
		"core.stalls":                 {per(c["stalls"]), "count"},
		"core.deliveries":             {per(c["deliveries"]), "count"},
		"core.par_rounds":             {per(c["par_rounds"]), "count"},
		"core.stalls_per_step":        {ratio(c["stalls"], c["steps"]), "ratio"},
		"core.compute_s":              {per(c["cost_ns"] / 1e9), "s"},
		"core.wait_s":                 {per(simulated - c["cost_ns"]/1e9), "s"},
		"channel.asks_out":            {per(c["asks_out"]), "count"},
		"channel.grants_out":          {per(c["grants_out"]), "count"},
		"channel.flushes":             {per(c["flushes"]), "count"},
		"channel.drives_per_frame":    {ratio(c["data_out"], c["frames_out"]), "ratio"},
		"wire.frames_out":             {per(c["frames_out"]), "count"},
		"wire.bytes_out":              {per(c["bytes_out"]), "bytes"},
		"wire.bytes_per_frame":        {ratio(c["bytes_out"], c["frames_out"]), "bytes"},
		"runtime.gc_cpu_s":            {per(td.gcCPU), "s"},
		"runtime.alloc_mb":            {per(td.allocBytes) / 1e6, "MB"},
		"runtime.heap_live_mb":        {td.heapLive / 1e6, "MB"},
		"runtime.sched_latency_s.p99": {td.schedP99, "s"},
		"runtime.mutex_wait_s":        {per(td.mutexWait), "s"},
	}
	var cpu, block float64
	for _, b := range cpuBuckets {
		m["cpu."+b+"_s"] = metric{per(td.cpu[b]), "s"}
		cpu += td.cpu[b]
	}
	for _, b := range blockBuckets {
		m["block."+b+"_s"] = metric{per(td.block[b]), "s"}
		block += td.block[b]
	}
	untraced, tracedH := w.headline(plain), w.headline(traced)
	m["trace.untraced_s"] = metric{untraced, "s"}
	m["trace.traced_s"] = metric{tracedH, "s"}
	m["trace.overhead"] = metric{tracedH/untraced - 1, "ratio"}
	m["trace.coverage"] = metric{ratio(cpu+block, simulated), "ratio"}
	m["trace.cpu_coverage"] = metric{ratio(cpu, simulated), "ratio"}

	samples["ops_traced"] = traced.ok
	samples["ops_untraced"] = plain.ok
	samples["step_s_traced"] = len(traced.step)
	samples["step_s_untraced"] = len(plain.step)
	samples["cpu_profile_samples"] = td.cpuSamples
	return m, nil
}
