// Command perfbench is Pia's benchmark. It runs one named workload in
// a closed loop through the public API for a fixed number of seconds,
// checks every simulated output, and prints one JSON result line:
//
//	perfbench --workload remote-word-coalesced --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every observer off. With --trace 1 the run first measures the
// untraced path for half the time, then attaches the observers, a CPU
// profile and a block profile for the other half, and reports the
// per-layer breakdown plus the tracing overhead. README.md lists every
// metric and workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	// One P, like the one CPU run.sh pins the process to: on a small
	// virtual machine, wakeups that cross to an idle vCPU make wall
	// times swing by a fifth between runs at GOMAXPROCS=2 (README.md).
	// sessions sizes its clients and pool from this setting, which the
	// record carries.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run. The fields below seconds exist so the
// package test can run every workload at a tiny size.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	pageSize int     // WubbleU page bytes; 0 is the paper's 66 KB page
	want     wantMap // Table 1 invariants for pageSize; nil is the paper's
	tenants  int     // live sessions tenants; 0 is 120
	skew     uint64  // added to every reference output; nonzero must fail every op
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record describes the run behind a result: what was measured, on
// what, and how many samples each timing rests on. It is printed on
// the line before the result.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Inputs     string         `json:"inputs"`
	Traced     bool           `json:"traced"`
	Seconds    float64        `json:"seconds"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPU        string         `json:"cpu"`
	Commit     string         `json:"commit"`
	Ops        int            `json:"ops"`
	OpsFailed  int            `json:"ops_failed"`
	ErrorRate  float64        `json:"error_rate"`
	FirstError string         `json:"first_error,omitempty"`
	Samples    map[string]int `json:"samples"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (sessions derives every tenant spec from it)")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 the traced per-layer breakdown")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, rec, err := bench(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rec.FirstError != "" {
		fmt.Fprintln(stderr, "perfbench: first failed operation:", rec.FirstError)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// bench sets the workload up, measures it and derives the metrics.
func bench(cfg config) (result, record, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return result{}, record{}, err
	}
	defer w.close()

	setup := newPhase(false)
	if err := w.setUp(setup); err != nil {
		return result{}, record{}, err
	}
	rec := record{
		Workload: cfg.workload, Seed: cfg.seed, Inputs: w.inputs(), Traced: cfg.trace,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel(), Commit: commit(),
		Samples: map[string]int{},
	}
	var ms map[string]metric
	var phases []*phase
	if !cfg.trace {
		ph := measure(w, cfg.seconds, false)
		phases = []*phase{setup, ph}
		ph.setup = append(ph.setup, setup.setup...)
		ms, err = endToEnd(ph, rec.Samples)
	} else {
		plain := measure(w, cfg.seconds/2, false)
		tr, terr := startTrace()
		if terr != nil {
			return result{}, record{}, terr
		}
		traced := measure(w, cfg.seconds/2, true)
		td, terr := tr.stop()
		if terr != nil {
			return result{}, record{}, terr
		}
		phases = []*phase{setup, plain, traced}
		ms, err = perLayer(w, plain, traced, td, rec.Samples)
	}
	if err != nil {
		return result{}, record{}, err
	}
	var wall float64
	for _, ph := range phases {
		rec.Ops += ph.ops
		rec.OpsFailed += ph.failed
		wall += ph.wall
		if rec.FirstError == "" && ph.firstErr != nil {
			rec.FirstError = ph.firstErr.Error()
		}
	}
	rec.Seconds = wall
	if rec.Ops == 0 {
		return result{}, record{}, errors.New("no operation was attempted")
	}
	rec.ErrorRate = float64(rec.OpsFailed) / float64(rec.Ops)
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return result{}, record{}, fmt.Errorf("metric %s is %v (first failure: %s)", name, m.Value, rec.FirstError)
		}
	}
	res := result{Correct: rec.OpsFailed == 0, Attempted: rec.Ops, Failed: rec.OpsFailed, Metrics: ms}
	return res, rec, nil
}

// endToEnd derives the metrics a user sees from an untraced phase.
func endToEnd(ph *phase, samples map[string]int) (map[string]metric, error) {
	if ph.ok == 0 {
		return nil, fmt.Errorf("no operation completed (first failure: %v)", ph.firstErr)
	}
	samples["load_s"] = len(ph.load)
	samples["setup_s"] = len(ph.setup)
	samples["step_s"] = len(ph.step)
	samples["alloc_mb_per_op"] = ph.ok
	samples["sessions_per_s"] = ph.ok
	return map[string]metric{
		"load_s":          {median(ph.load), "s"},
		"setup_s":         {median(ph.setup), "s"},
		"alloc_mb_per_op": {ph.allocBytes / float64(ph.ok) / 1e6, "MB"},
		"step_s.p50":      {quantile(ph.step, 0.5), "s"},
		"step_s.p90":      {quantile(ph.step, 0.9), "s"},
		"sessions_per_s":  {float64(ph.ok) / ph.wall, "1/s"},
	}, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from; a checkout
// without version control metadata reports "unknown".
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func secs(d time.Duration) float64 { return d.Seconds() }
