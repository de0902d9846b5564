package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{n: 1000, wantValue: 990, wantPct: 99},    // p99 has exactly 10 beyond it
		{n: 2000, wantValue: 1980, wantPct: 99},   // 20 beyond
		{n: 500, wantValue: 490, wantPct: 98},     // capped: 10 beyond
		{n: 11, wantValue: 1, wantPct: 100 / 11.}, // only the minimum has 10 beyond
		{n: 10, wantValue: 5.5, wantPct: 50},      // none has 10 beyond: the median
	}
	for _, c := range cases {
		v, pct := tail(seq(c.n), 0.99)
		if v != c.wantValue || math.Abs(pct-c.wantPct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", c.n, v, pct, c.wantValue, c.wantPct)
		}
		if c.n > minBeyond {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: %d samples beyond the reported percentile, want ≥ %d", c.n, beyond, minBeyond)
			}
		}
	}
}

func TestSliceTail(t *testing.T) {
	// Three slices of 1000 samples; the middle one holds a stall.
	var xs []float64
	for s := 0; s < 3; s++ {
		for i := 1; i <= 1000; i++ {
			x := float64(i)
			if s == 1 && i > 900 {
				x = 1e6
			}
			xs = append(xs, x)
		}
	}
	v, pct := sliceTail(xs, 3, 0.99)
	if v != 990 || pct != 99 {
		t.Errorf("sliceTail = %v at p%v, want 990 at p99", v, pct)
	}
	if whole, _ := tail(xs, 0.99); whole != 1e6 {
		t.Errorf("tail over all samples = %v, want the stall's 1e6", whole)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Overlapping children cover [10,50] and [80,100] of the root: 60.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 80, End: 120},
		// A grandchild counts against its parent only.
		{ID: 5, Parent: 2, Name: "c", Start: 12, End: 18},
		{ID: 6, Name: "other", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 40, 2: 14, 3: 30, 4: 40, 5: 6, 6: 4}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self = %d, want %d", id, self[id], w)
		}
	}
	rows := layerTable(spans)
	byName := map[string]layerRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if a := byName["a"]; a.Count != 2 || a.Total != 50 || a.Self != 44 {
		t.Errorf("layer a = %+v, want 2 calls, total 50, self 44", a)
	}
}

// benchSpec is BENCHMARK.json as the tests read it.
type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestOneCommandSmoke runs every workload at smoke-test size through the
// one command, untraced and traced: every correctness check must pass,
// each result line must hold exactly BENCHMARK.json's metrics (every
// end-to-end one, or every per-layer one) in its unit, end-to-end ones
// above zero, and a traced run must print the figures of every layer its
// workload runs.
func TestOneCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := loadSpec(t)
	units := map[string]string{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for _, traced := range []string{"0", "1"} {
		var out, errb bytes.Buffer
		code := run([]string{"--workload", "all", "--tiny", "--seconds", "0.4", "--trace", traced, "--spans", t.TempDir()}, &out, &errb)
		if code != 0 {
			t.Fatalf("trace=%s: exit %d\n%s\n%s", traced, code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace=%s: last line is not the result: %v", traced, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("trace=%s: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, out.String())
		}
		want := 0
		for _, w := range workloads {
			names := e2eMetrics
			if traced == "1" {
				names = layerMetrics
				for _, n := range w.layers {
					if !strings.Contains(out.String(), "  "+n+" ") {
						t.Errorf("%s: traced run printed no %s", w.name, n)
					}
				}
			}
			want += len(names)
			for _, n := range names {
				m, ok := res.Metrics[w.name+"."+n]
				if !ok {
					t.Errorf("trace=%s: %s missing %s", traced, w.name, n)
					continue
				}
				if m.Unit != units[n] {
					t.Errorf("%s: %s in %q, BENCHMARK.json says %q", w.name, n, m.Unit, units[n])
				}
				if traced == "0" && !(m.Value > 0) {
					t.Errorf("%s: %s = %v, want > 0", w.name, n, m.Value)
				}
			}
		}
		if len(res.Metrics) != want {
			t.Errorf("trace=%s: %d metrics, want %d", traced, len(res.Metrics), want)
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the benchmark: the
// same workloads with the same reasons, and the same metric names, in the
// same order. Every workload's traced run measures every per-layer
// metric, and lists each of its layer figures once.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	same := func(what string, got, want []string) {
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark %v", what, got, want)
		}
	}
	same("workloads", got, want)
	got = got[:0]
	for _, m := range spec.EndToEnd {
		got = append(got, m.Name)
	}
	same("end_to_end", got, e2eMetrics)
	got = got[:0]
	for _, m := range spec.PerLayer {
		got = append(got, m.Name)
	}
	same("per_layer", got, layerMetrics)
	for _, w := range workloads {
		listed := map[string]bool{}
		for _, n := range w.layers {
			if listed[n] {
				t.Errorf("%s: layer figure %s listed twice", w.name, n)
			}
			listed[n] = true
		}
		for _, n := range layerMetrics {
			if !listed[n] {
				t.Errorf("%s: per-layer metric %s is not among its layers", w.name, n)
			}
		}
	}
}

// TestFailedCheckExitsNonZero: a run whose correctness check fails still
// prints its result line, with correct false, and exits 1.
func TestFailedCheckExitsNonZero(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = []workload{{name: "broken", why: "fails a check", run: func(e *env, r *result) error {
		r.check(false, "deliberately failed")
		return nil
	}}}
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "broken"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d, want false and > 0", res.Correct, res.Failed)
	}
}
