package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Times are nanoseconds since the run
// started; Parent is 0 for a root span.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// spanLog collects the spans of one run in memory. Each goroutine records
// into its own spanBuf, so recording takes no lock; the buffers are merged
// when the run writes its spans out.
type spanLog struct {
	run  string
	t0   time.Time
	next atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newSpanLog(run string) *spanLog { return &spanLog{run: run, t0: time.Now()} }

// buf returns a new per-goroutine buffer; a nil log gives a nil buffer,
// whose methods record nothing.
func (l *spanLog) buf() *spanBuf {
	if l == nil {
		return nil
	}
	b := &spanBuf{log: l}
	l.mu.Lock()
	l.bufs = append(l.bufs, b)
	l.mu.Unlock()
	return b
}

// spans returns every recorded span, ordered by start time.
func (l *spanLog) spans() []Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Span
	for _, b := range l.bufs {
		out = append(out, b.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write emits the spans as JSON lines.
func (l *spanLog) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// spanBuf is one goroutine's span buffer.
type spanBuf struct {
	log   *spanLog
	spans []Span
}

// sibling returns a new buffer of the same log, for another goroutine (nil
// on a nil buffer).
func (b *spanBuf) sibling() *spanBuf {
	if b == nil {
		return nil
	}
	return b.log.buf()
}

// begin opens a span and returns its handle for end; the handle is -1 on
// a nil buffer.
func (b *spanBuf) begin(name string, parent int64) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, Span{
		ID:     b.log.next.Add(1),
		Parent: parent,
		Name:   name,
		Start:  int64(time.Since(b.log.t0)),
		Run:    b.log.run,
	})
	return len(b.spans) - 1
}

// end closes the span opened as h and returns its duration.
func (b *spanBuf) end(h int) time.Duration {
	if b == nil || h < 0 {
		return 0
	}
	s := &b.spans[h]
	s.End = int64(time.Since(b.log.t0))
	return time.Duration(s.End - s.Start)
}

// id returns the span ID behind handle h, for use as a parent (0 on a nil
// buffer).
func (b *spanBuf) id(h int) int64 {
	if b == nil || h < 0 {
		return 0
	}
	return b.spans[h].ID
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its child spans. Overlapping children (spans
// recorded by concurrent goroutines under one parent) are counted once.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = time.Duration(s.End-s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [start, end) the union of the spans'
// intervals covers.
func covered(start, end int64, spans []Span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, start), min(c.End, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		if open && x.a <= curB {
			curB = max(curB, x.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x.a, x.b, true
	}
	if open {
		total += curB - curA
	}
	return time.Duration(total)
}

// layerTable aggregates spans by name, with total and self time.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	byName := make(map[string]*layerRow)
	for _, s := range spans {
		r := byName[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			byName[s.Name] = r
		}
		r.Count++
		r.Total += time.Duration(s.End - s.Start)
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// printLayerTable writes the span table: calls, total and self time, and
// mean time per call.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "  %-34s %10s %12s %12s %12s\n", "span", "calls", "total_ms", "self_ms", "mean_us")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10d %12.3f %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6, float64(r.Total)/1e3/float64(r.Count))
	}
}
