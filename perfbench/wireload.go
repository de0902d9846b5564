package main

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"distwindow"
	"distwindow/internal/datagen"
	"distwindow/internal/protocol"
	"distwindow/internal/wire"
	"distwindow/internal/wire/codec"
)

// wireSites is wire-loopback's site count.
const wireSites = 2

// flushTimeout bounds the wait for every frame to be acknowledged.
const flushTimeout = 30 * time.Second

// runWire runs wire-loopback: DA2 sites on resilient binary v2 senders
// dialled over 127.0.0.1 to one coordinator, fed by one goroutine. Its
// reference is the core DA2 replay of the same events, whose message
// stream the networked sites must reproduce.
func runWire(e *env, r *result) error {
	z := e.sizes()
	ds := datagen.Synthetic(z.wireD, datagen.Config{
		N: z.wirePerWindow * z.wireWindows, RowsPerWindow: z.wirePerWindow, Sites: wireSites, Seed: e.seed,
	})
	cfg := distwindow.Config{Protocol: distwindow.DA2, D: ds.D, W: ds.W, Eps: eps, Sites: wireSites}
	s := newTracked("wire", cfg, ds.Events, z.ticks, false)
	ref, err := replay(s, e.trace)
	if err != nil {
		return err
	}
	var frames []codec.Msg // captured by the traced reps
	build := func(b *spanBuf) (system, error) {
		x := &wireSystem{s: s, ref: ref, frames: &frames}
		if err := x.start(b, e.seed); err != nil {
			x.close()
			return nil, err
		}
		return x, nil
	}
	return measure(e, r, plan{
		streams: []*tracked{s},
		refs:    []*reference{ref},
		build:   build,
		words: func(sys system) float64 {
			msgs := sys.(*wireSystem).coord.Metrics().Msgs
			return float64(msgs*protocol.DirectionWords(s.cfg.D)) / s.windows()
		},
		wireBytes: func(sys system) float64 {
			return float64(sys.(*wireSystem).lastBytes) / s.windows()
		},
		probes: func(last system) {
			b := e.log.buf()
			streams := []*tracked{s}
			probeWireLive(r, last.(*wireSystem), frames)
			probeCodec(r, b, frames)
			probeFD(r, b, streams)
			probeIWMT(r, b, streams)
			probeMat(r, b, []*reference{ref}, false, false)
		},
	})
}

// wireSystem is one coordinator with its listener and the sites' senders.
type wireSystem struct {
	s      *tracked
	ref    *reference
	coord  *wire.Coordinator
	served chan struct{}
	rs     []*wire.ResilientSender
	sites  []*wire.DA2Site

	// bytes counts the bytes the sites' connections carried, both ways;
	// lastBytes is its value at the end of the last feed.
	bytes     atomic.Int64
	lastBytes int64

	// b and cur are the feeding goroutine's span buffer and open span,
	// which the timing sender records under; frames collects the frames
	// sent during traced feeds.
	b      *spanBuf
	cur    int64
	frames *[]codec.Msg

	rows, failed, unacked int64
	firstErr              error
}

// start listens, serves and dials: set-up ends when both sites hold an
// established connection.
func (x *wireSystem) start(b *spanBuf, seed int64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	x.coord = wire.NewCoordinator(x.s.cfg.D)
	x.served = make(chan struct{})
	go func() {
		defer close(x.served)
		x.coord.Serve(ln)
	}()
	addr := ln.Addr().String()
	for i := 0; i < wireSites; i++ {
		dial := func() (io.WriteCloser, error) {
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, n: &x.bytes}, nil
		}
		rs, err := wire.DialFunc(dial, wire.WithCodec(wire.BinaryV2), wire.WithResilience(wire.ResilienceConfig{
			DialTimeout: 2 * time.Second,
			BackoffBase: 5 * time.Millisecond,
			BackoffMax:  200 * time.Millisecond,
			JitterSeed:  seed + int64(i),
		}))
		if err != nil {
			return err
		}
		x.rs = append(x.rs, rs)
		rs.Flush() // dials
		if m := rs.Metrics(); m.DialAttempts == m.DialFailures {
			return fmt.Errorf("site %d could not dial the coordinator", i)
		}
		var out wire.Sender = rs
		if b != nil {
			out = &timedSender{inner: rs, x: x}
		}
		site, err := wire.NewDA2Site(wire.SiteConfig{ID: i, D: x.s.cfg.D, W: x.s.cfg.W, Eps: x.s.cfg.Eps}, out)
		if err != nil {
			return err
		}
		x.sites = append(x.sites, site)
	}
	return nil
}

func (x *wireSystem) feed(b *spanBuf, parent int64) int64 {
	x.b = b
	x.bytes.Store(0)
	if b != nil {
		*x.frames = (*x.frames)[:0]
	}
	x.s.forEach(func(t int64) {
		for _, site := range x.sites {
			h := b.begin("wire.DA2Site.Advance", parent)
			x.cur = b.id(h)
			err := site.Advance(t)
			b.end(h)
			x.count(0, err)
		}
	}, func(i int) {
		e := x.s.events[i]
		h := b.begin("wire.DA2Site.Observe", parent)
		x.cur = b.id(h)
		err := x.sites[e.Site].Observe(e.Row.T, e.Row.V)
		b.end(h)
		x.count(1, err)
	})
	for _, rs := range x.rs {
		h := b.begin("wire.FlushWait", parent)
		x.unacked += int64(rs.FlushWait(flushTimeout))
		b.end(h)
	}
	x.lastBytes = x.bytes.Load()
	return x.rows
}

func (x *wireSystem) count(rows int64, err error) {
	if err != nil {
		x.failed++
		if x.firstErr == nil {
			x.firstErr = err
		}
		return
	}
	x.rows += rows
}

func (x *wireSystem) verify(r *result) {
	n := int64(len(x.s.events))
	r.ops(n, x.failed, x.firstErr)
	m := x.coord.Metrics()
	r.ops(int64(x.ref.updates), x.unacked, nil)
	r.check(x.unacked == 0, "wire-loopback: %d frames never acknowledged", x.unacked)
	r.check(m.Msgs == int64(x.ref.updates), "wire-loopback: coordinator applied %d frames, the core DA2 replay emitted %d", m.Msgs, x.ref.updates)
	r.check(m.BadMsgs == 0, "wire-loopback: coordinator rejected %d frames", m.BadMsgs)
	errv := x.ref.final.ErrOf(x.coord.Sketch())
	r.check(errv <= eps, "wire-loopback: coordinator sketch error %.4g > ε=%g against the exact window", errv, eps)
	x.rows, x.failed, x.unacked, x.firstErr = 0, 0, 0, nil
}

func (x *wireSystem) close() {
	for _, rs := range x.rs {
		rs.DiscardPending = true // undelivered frames were counted by verify
		rs.Close()
	}
	if x.coord != nil {
		x.coord.Close()
		<-x.served
	}
}

// countingConn counts the bytes a connection carries in both directions.
// It keeps net.Conn's Read, so the sender takes the acknowledged path.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// timedSender records a span around each Send of a traced feed and keeps
// a copy of the frame for the codec probe.
type timedSender struct {
	inner wire.Sender
	x     *wireSystem
}

func (t *timedSender) Send(m wire.Msg) error {
	x := t.x
	h := x.b.begin("wire.Send", x.cur)
	err := t.inner.Send(m)
	x.b.end(h)
	if x.b != nil {
		m.V = append([]float64(nil), m.V...)
		*x.frames = append(*x.frames, m)
	}
	return err
}
