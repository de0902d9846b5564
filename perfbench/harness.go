package main

import (
	"fmt"
	"runtime"
	"time"
)

// env is what one benchmark run is given.
type env struct {
	seed   int64
	budget time.Duration // the measured time (--seconds)
	tiny   bool          // smoke-test sizes
	trace  bool
	log    *spanLog // nil unless trace
}

// metric is one reported figure with the number of samples behind it and
// an optional note for the printed table.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
	note    string
}

// result accumulates one workload run: the failure accounting, the
// correctness checks and the figures.
type result struct {
	attempted, failed int64
	checks, badChecks int64
	problems          []string
	findings          []string // reported, not failures
	metrics           []metric // end-to-end
	layers            []metric // per-layer, traced runs only
}

// check records one correctness check; a failed check fails the run and
// counts against the attempts.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	r.checks++
	if !ok {
		r.failed++
		r.badChecks++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// ops records attempted and failed operations.
func (r *result) ops(attempted, failed int64, firstErr error) {
	r.attempted += attempted
	r.failed += failed
	if firstErr != nil && len(r.problems) < 20 {
		r.problems = append(r.problems, firstErr.Error())
	}
}

func (r *result) add(name, unit string, value float64, samples int) *metric {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: value, samples: samples})
	return &r.metrics[len(r.metrics)-1]
}

func (r *result) layer(name, unit string, value float64, samples int) {
	r.layers = append(r.layers, metric{name: name, unit: unit, value: value, samples: samples})
}

// system is one built instance of a workload's system under test.
type system interface {
	// feed pushes the workload's whole input through the system, ending
	// with the drain or flush that makes every row count, and returns the
	// rows accepted. It is the timed part of a rep.
	feed(b *spanBuf, parent int64) (rows int64)
	// verify checks the fed system's outputs against the reference.
	verify(r *result)
	// close releases the system and stops its goroutines.
	close()
}

// rep is one timed feed.
type rep struct {
	rows    int64
	wall    time.Duration
	mallocs uint64
}

// setupTimes builds and closes the system n times and appends the build
// times in seconds to out. Set-up is timed alone: it ends when the system
// can take its first row.
func setupTimes(out []float64, n int, b *spanBuf, build func(b *spanBuf) (system, error)) ([]float64, error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		h := b.begin("bench.setup", 0)
		start := time.Now()
		sys, err := build(b)
		el := time.Since(start)
		b.end(h)
		if err != nil {
			return nil, err
		}
		sys.close()
		out = append(out, el.Seconds())
	}
	return out, nil
}

// runReps builds the system and feeds it repeatedly until the budget is
// spent (at least minReps times), verifying each fed system. Before each
// rep it times setups set-ups, appended to *setup, so that the set-up
// figure samples the host over the whole run rather than one instant. The
// last system is returned open, for the figures read from it and the heap
// figure.
func runReps(r *result, budget time.Duration, minReps, setups int, setup *[]float64, b *spanBuf, build func(b *spanBuf) (system, error)) ([]rep, system, error) {
	var reps []rep
	var last system
	deadline := time.Now().Add(budget)
	for len(reps) < minReps || time.Now().Before(deadline) {
		if last != nil {
			last.close()
			last = nil
		}
		var err error
		if *setup, err = setupTimes(*setup, setups, b, build); err != nil {
			return nil, nil, err
		}
		sys, err := build(b)
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h := b.begin("bench.feed", 0)
		start := time.Now()
		rows := sys.feed(b, b.id(h))
		wall := time.Since(start)
		b.end(h)
		runtime.ReadMemStats(&m1)
		if rows == 0 {
			sys.close()
			return nil, nil, fmt.Errorf("feed accepted no rows")
		}
		reps = append(reps, rep{rows: rows, wall: wall, mallocs: m1.Mallocs - m0.Mallocs})
		sys.verify(r)
		last = sys
	}
	return reps, last, nil
}

// totalRate is the rows of a set of reps over their summed feed time.
//
// It is not the median of the reps' rates: on a shared host a vCPU runs
// at one of two speeds, far apart, for seconds at a time, and the median
// jumps between them with the share of the run spent in each, while the
// total moves in proportion to it.
func totalRate(reps []rep) float64 {
	var rows int64
	var wall time.Duration
	for _, x := range reps {
		rows += x.rows
		wall += x.wall
	}
	return float64(rows) / wall.Seconds()
}

// repMetrics adds the ingest figures of a set of reps: rows accepted over
// the wall time of the timed feeds, and mallocs per row over them.
func repMetrics(r *result, reps []rep) {
	var rows int64
	var mallocs uint64
	m := r.add("ingest_rows_per_s", "rows/s", totalRate(reps), len(reps))
	m.note = "reps:"
	for _, x := range reps {
		rows += x.rows
		mallocs += x.mallocs
		m.note += fmt.Sprintf(" %.0f", float64(x.rows)/x.wall.Seconds())
	}
	r.add("allocs_per_row", "allocs", float64(mallocs)/float64(rows), len(reps))
}

// heapLiveMB is the live heap, HeapAlloc after a forced GC, in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// queryMetrics adds the figures of an open-loop querier. They are
// per-layer figures, which an untraced run also prints: only
// serve-registry runs a querier, so they cannot be end-to-end metrics,
// which every workload reports.
//
// The p99 is cut from slices of the run: on a virtual machine it is set
// by how fast the host wakes an idle vCPU (the generator itself runs
// milliseconds late), and one stall would move it by more than any bound.
func queryMetrics(r *result, q *querySamples) {
	r.ops(q.attempted, q.failed, q.firstErr)
	lat := durationsMs(q.latency)
	if len(lat) == 0 {
		r.check(false, "the open-loop querier issued no queries")
		return
	}
	p99, pct := sliceTail(lat, tailSlices, 0.99)
	p90, _ := tail(lat, 0.9)
	lag, _ := tail(durationsMs(q.lag), 0.99)
	r.layer("query_p50_ms", "ms", median(lat), len(lat))
	r.layer("query_p99_ms", "ms", p99, len(lat))
	r.layers[len(r.layers)-1].note = fmt.Sprintf("median of %d slices' p%.4g; p90=%.3g, max=%.3g", tailSlices, pct, p90, sorted(lat)[len(lat)-1])
	r.layer("bench.query_gen_lag_ms_p99", "ms", lag, len(q.lag))
}
