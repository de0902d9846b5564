// Command perfbench is the repository's benchmark. One command runs a
// workload (or all of them), checks that the outputs are correct, and
// prints every end-to-end metric by name with its unit and sample count;
// a traced run (--trace 1) instead prints the per-layer metrics, timed
// from here around the calls into each module. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload da1-window --seed 1 --seconds 10 --trace 0
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// perfbench/README.md describes them.
package main

import (
	"compress/gzip"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// e2eMetrics are the end-to-end metrics, in output order; every untraced
// run reports each of them for every workload, so each is one that every
// workload has.
var e2eMetrics = []string{
	"setup_s", "ingest_rows_per_s", "words_per_window", "site_space_words", "cov_err_max",
	"heap_live_mb", "allocs_per_row", "ok_ratio",
}

// layerMetrics are the per-layer metrics of the result line, in output
// order: the layer figures every workload's traced run measures, since
// the result line of a traced run holds every one of them. A traced run
// prints, above its result line, the figures of every layer its workload
// runs (workload.layers), these among them.
var layerMetrics = []string{
	"core.updates_per_krow", "fd.update_ns_per_row", "mat.eig_sym_us", "bench.trace_overhead_pct",
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// jsonMetric is one metric of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonResult is the result line.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured time per workload, seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	tiny := fs.Bool("tiny", false, "smoke-test sizes")
	spans := fs.String("spans", filepath.Join("perfbench", ".out"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintf(stdout, "perfbench: nproc=%d GOMAXPROCS=%d %s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *seed, *seconds, *traceFlag)
	out := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, w := range selected {
		e := &env{
			seed:   *seed,
			budget: time.Duration(*seconds * float64(time.Second)),
			tiny:   *tiny,
			trace:  *traceFlag == 1,
		}
		if e.trace {
			e.log = newSpanLog(fmt.Sprintf("%s/seed=%d", w.name, *seed))
		}
		r := &result{}
		start := time.Now()
		if err := w.run(e, r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		r.add("ok_ratio", "ratio", 1-float64(r.failed)/float64(max(r.attempted, 1)), int(r.attempted))
		names, shown, reported := e2eMetrics, e2eMetrics, r.metrics
		if e.trace {
			names, shown, reported = layerMetrics, w.layers, r.layers
			if err := writeSpans(*spans, w.name, e.log); err != nil {
				fmt.Fprintf(stderr, "perfbench: %s: write spans: %v\n", w.name, err)
				return 2
			}
		}
		byName := make(map[string]metric, len(reported))
		for _, m := range reported {
			byName[m.name] = m
		}
		for _, n := range shown {
			if _, ok := byName[n]; !ok {
				r.check(false, "metric %s was not measured", n)
			}
		}
		fmt.Fprintf(stdout, "\n%s (%s)\n", w.name, w.why)
		if e.trace {
			printLayerTable(stdout, layerTable(e.log.spans()))
			fmt.Fprintln(stdout)
		}
		for _, n := range shown {
			if m, ok := byName[n]; ok {
				printMetric(stdout, m)
			}
		}
		for _, n := range names {
			m, ok := byName[n]
			if !ok {
				continue
			}
			key := n
			if len(selected) > 1 {
				key = w.name + "." + n
			}
			out.Metrics[key] = jsonMetric{Value: finite(m.value), Unit: m.unit}
		}
		if !e.trace && len(r.layers) > 0 {
			fmt.Fprintln(stdout, "  also measured (per-layer figures, reported by --trace 1):")
			for _, m := range r.layers {
				printMetric(stdout, m)
			}
		}
		correct := r.badChecks == 0
		fmt.Fprintf(stdout, "  checks: %d passed, %d failed; ops: %d attempted, %d failed; %.1fs\n",
			r.checks-r.badChecks, r.badChecks, r.attempted, r.failed, time.Since(start).Seconds())
		for _, p := range r.problems {
			fmt.Fprintf(stdout, "  problem: %s\n", p)
		}
		for _, f := range r.findings {
			fmt.Fprintf(stdout, "  finding: %s\n", f)
		}
		out.Correct = out.Correct && correct
		out.Attempted += r.attempted
		out.Failed += r.failed
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func printMetric(w io.Writer, m metric) {
	fmt.Fprintf(w, "  %-34s %14.6g %-8s n=%d %s\n", m.name, m.value, m.unit, m.samples, m.note)
}

// finite maps a non-finite figure to −1 so the result line stays valid
// JSON; a figure that cannot be computed is a bug the checks report.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return -1
	}
	return v
}

// writeSpans writes a traced run's spans as gzipped JSON lines.
func writeSpans(dir, workload string, log *spanLog) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl.gz"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	if err := log.write(zw); err != nil {
		return err
	}
	return zw.Close()
}
