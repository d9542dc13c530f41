package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// tinyWant holds the invariants of a 4 KB page, the size the tests
// run the Table 1 workloads at.
var tinyWant = wantMap{
	"remote-word":           {virt: tinyVirt, drives: tinyDrives},
	"remote-word-coalesced": {virt: tinyVirt, drives: tinyDrives},
}

const (
	tinyPage   = 4096
	tinyVirt   = 162_034_559
	tinyDrives = 1025
)

func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.4, trace: trace, pageSize: tinyPage, want: tinyWant, tenants: 8}
}

// layerFloors names, per workload, the per-layer metrics its traced
// run must report above a floor: a counter or span renamed in the
// program would otherwise read 0 without failing anything.
var layerFloors = map[string]map[string]float64{
	"remote-word": {
		"core.steps": 0, "trace.cpu_coverage": 0, "pia.run_s": 0,
		"wire.frames_out": 0, "channel.asks_out": 0,
	},
	"remote-word-coalesced": {
		"core.steps": 0, "trace.cpu_coverage": 0, "pia.run_s": 0,
		"core.compute_s": 0, "wire.frames_out": 0, "channel.drives_per_frame": 1,
	},
	"sessions": {
		"core.steps": 0, "trace.cpu_coverage": 0, "service.create_s.p50": 0,
		"core.compute_s": 0,
	},
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWorkloadsEmitEveryMetric runs each workload at a tiny size, plain
// and traced, and checks that every metric BENCHMARK.json names is
// emitted with its unit, that the layers each workload runs measure
// something, and that no operation failed.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadNames()))
	}
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			res, rec, err := bench(tiny(w.Name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || rec.ErrorRate != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %s", w.Name, trace, res.Failed, res.Attempted, rec.FirstError)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.Name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if !trace {
				continue
			}
			for name, floor := range layerFloors[w.Name] {
				if got := res.Metrics[name].Value; got <= floor {
					t.Errorf("%s: layer metric %s is %v, want above %v", w.Name, name, got, floor)
				}
			}
		}
	}
}

// TestWrongReferenceFails proves the output checks fire: with every
// reference skewed, every operation must count as failed.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range workloadNames() {
		c := tiny(w, false)
		c.skew = 1
		res, rec, err := bench(c)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
			t.Errorf("%s: %d of %d operations failed with a wrong reference, want all", w, res.Failed, res.Attempted)
		}
		if rec.OpsFailed != res.Failed || rec.FirstError == "" {
			t.Errorf("%s: record %+v does not carry the failures", w, rec)
		}
	}
}

// TestResultLine checks the command's output: a record line, then one
// JSON object with exactly the result keys.
func TestResultLine(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "sessions", "--seed", "3", "--seconds", "0.3", "--trace", "0"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, lines[len(lines)-1])
		}
	}
	if len(last) != 4 {
		t.Errorf("result line has %d keys, want 4", len(last))
	}
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 {
		t.Error("unknown workload exited 0")
	}
}
