// Package telemetry is the fleet telemetry plane: each site of a
// distributed deployment periodically snapshots its observability
// counters into a compact Frame, ships it to the coordinator over the
// existing wire connection (a dedicated message kind, outside the seq/ack
// estimate space — telemetry is best-effort by design), and the
// coordinator's Fleet aggregates the frames into a single pane of glass
// keyed by (site, stream): ingest/communication rates from fixed-capacity
// time-series rings, merged latency histograms, the paper's words/window
// and ε-headroom series, and degraded-site detection unified with the
// coordinator's frame-level liveness.
//
// The plane is strictly off the ingest hot path: publishing happens on a
// ticker goroutine reading atomic counters, recording costs one mutex
// acquisition per frame at the coordinator, and a lost frame costs
// nothing but a gap in the rate series.
package telemetry

import (
	"sync"
	"time"

	"distwindow/internal/obs"
)

// Frame is one site's point-in-time metric snapshot for one logical
// stream — the unit shipped over the wire. All fields are cumulative
// counters or instantaneous gauges; rates are derived at the coordinator
// from consecutive frames, so a dropped frame skews nothing.
//
// Frames ride the wire as the fixed-width telemetry section of a binary
// v2 Msg frame (see PROTOCOLS.md); a new field needs a new section layout
// there.
type Frame struct {
	// Site identifies the sender (-1 = the coordinator's own process,
	// which publishes its local series into the same fleet).
	Site int
	// Stream is the logical stream this frame describes ("" = default).
	Stream string
	// Proto is the protocol's display name, exported as the protocol
	// label.
	Proto string
	// UnixNs is the sender's wall clock at snapshot time — the rate
	// denominators. Stamped by Publisher.
	UnixNs int64

	// Rows counts rows observed into the stream's protocol state.
	Rows int64
	// Msgs and Words count estimate traffic pushed toward the coordinator
	// (the paper's word accounting).
	Msgs, Words int64

	// Replays, Acked, Backlog, Dials and DialFails mirror the resilient
	// sender's delivery counters (PR 5); Backlog is the current
	// undelivered depth, a gauge.
	Replays, Acked int64
	Backlog        int64
	Dials          int64
	DialFails      int64

	// Eps is the stream's configured error budget (0 = no auditor);
	// Err, Headroom, WordsPerWindow and Violations mirror the live
	// ε-auditor's latest measurement.
	Eps, Err, Headroom float64
	WordsPerWindow     float64
	Violations         int64

	// UpdateLat is the site's update-latency histogram; the fleet merges
	// every site's into one distribution.
	UpdateLat obs.HistSnapshot
}

// Publisher periodically collects a Frame, stamps it with the wall clock,
// and pushes it through a send seam — at a site, wire.TelemetrySender
// over the existing coordinator connection; in process, Fleet.Record
// directly. Collect runs on the publisher's goroutine, never the ingest
// path, so it may read atomic counters freely but must not block.
type Publisher struct {
	collect func() Frame
	send    func(Frame) error
	now     func() time.Time

	mu      sync.Mutex
	stop    chan struct{}
	done    chan struct{}
	sent    obs.Counter
	dropped obs.Counter
}

// NewPublisher pairs a frame source with a send seam.
func NewPublisher(collect func() Frame, send func(Frame) error) *Publisher {
	return &Publisher{collect: collect, send: send, now: time.Now}
}

// Publish collects, stamps and sends one frame immediately. A send error
// is counted (telemetry is best-effort) and returned for callers that
// want to log it.
func (p *Publisher) Publish() error {
	fr := p.collect()
	fr.UnixNs = p.now().UnixNano()
	err := p.send(fr)
	if err != nil {
		p.dropped.Inc()
		return err
	}
	p.sent.Inc()
	return nil
}

// Start publishes every interval on a background goroutine until Stop.
// Starting an already-started publisher restarts its ticker.
func (p *Publisher) Start(every time.Duration) {
	if every <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopLocked()
	stop := make(chan struct{})
	done := make(chan struct{})
	p.stop, p.done = stop, done
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				_ = p.Publish()
			}
		}
	}()
}

// Stop halts the ticker goroutine and publishes one final frame, so the
// fleet sees the sender's end-of-life counters even for short runs.
func (p *Publisher) Stop() {
	p.mu.Lock()
	p.stopLocked()
	p.mu.Unlock()
	_ = p.Publish()
}

func (p *Publisher) stopLocked() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
		p.stop, p.done = nil, nil
	}
}

// Sent and Dropped report publish outcomes (dropped = send errors).
func (p *Publisher) Sent() int64    { return p.sent.Load() }
func (p *Publisher) Dropped() int64 { return p.dropped.Load() }
