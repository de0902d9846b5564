package wire

import (
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"distwindow/internal/chaos"
)

// The chaos soak drives the same seeded workload twice — once fault-free,
// once under seeded transport faults plus a mid-stream site crash restored
// from a checkpoint — and requires the coordinator's final estimate to be
// BIT-IDENTICAL. Floating-point addition is order-sensitive, so the soak
// serializes delivery: after every row it waits until the row's site has
// an empty backlog (acks received) before feeding the next row. That
// pins the coordinator's apply order; the delivery guarantee under test
// is that faults and recovery change NOTHING — not the set of applied
// deltas, not their order, not a single bit of the estimate.

// soakResult is everything the two runs must agree on.
type soakResult struct {
	chat []float64
	sum  float64
	cm   CoordinatorMetrics
}

// soakSite abstracts the per-protocol site over the crash/restore cycle.
type soakSite struct {
	observe func(int64, []float64) error
	advance func(int64) error
	// checkpoint captures the site's protocol state; the returned restore
	// builds a fresh site from it pushing to a new sender.
	checkpoint func() func(out Sender) (*soakSite, error)
}

func newSoakSite(t *testing.T, proto string, cfg SiteConfig, out Sender) *soakSite {
	t.Helper()
	switch proto {
	case "da1":
		s, err := NewDA1Site(cfg, out)
		if err != nil {
			t.Fatal(err)
		}
		return wrapDA1(s)
	case "da2", "da2c":
		var s *DA2Site
		var err error
		if proto == "da2" {
			s, err = NewDA2Site(cfg, out)
		} else {
			s, err = NewDA2CSite(cfg, out)
		}
		if err != nil {
			t.Fatal(err)
		}
		return wrapDA2(s)
	}
	t.Fatalf("unknown soak protocol %q", proto)
	return nil
}

func wrapDA1(s *DA1Site) *soakSite {
	return &soakSite{
		observe: s.Observe,
		advance: s.Advance,
		checkpoint: func() func(Sender) (*soakSite, error) {
			st := s.Snapshot()
			return func(out Sender) (*soakSite, error) {
				r, err := RestoreDA1Site(st, out)
				if err != nil {
					return nil, err
				}
				return wrapDA1(r), nil
			}
		},
	}
}

func wrapDA2(s *DA2Site) *soakSite {
	return &soakSite{
		observe: s.Observe,
		advance: s.Advance,
		checkpoint: func() func(Sender) (*soakSite, error) {
			st := s.Snapshot()
			return func(out Sender) (*soakSite, error) {
				r, err := RestoreDA2Site(st, out)
				if err != nil {
					return nil, err
				}
				return wrapDA2(r), nil
			}
		},
	}
}

// runSoak streams the seeded workload into a real TCP coordinator. With
// inj non-nil every connection draws faults from it; with crash true,
// site 0 is killed mid-stream and resumed from its last checkpoint plus a
// re-feed of the rows observed since — the crashed process's input replay.
func runSoak(t *testing.T, proto string, inj *chaos.Injector, crash bool, extra ...SenderOption) soakResult {
	t.Helper()
	const (
		d       = 6
		w       = int64(120)
		eps     = 0.2
		sites   = 2
		rows    = 360
		cpAt    = 150 // site-0 checkpoint row (global index)
		crashAt = 260 // site-0 crash row (global index)
	)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(d, WithStaleAfter(30*time.Second))
	go coord.Serve(ln)
	defer coord.Close()

	newSender := func(jitterSeed int64) *ResilientSender {
		dial := func() (io.WriteCloser, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
		}
		if inj != nil {
			dial = inj.Dial(dial)
		}
		opts := append([]SenderOption{WithResilience(ResilienceConfig{
			BackoffBase: time.Millisecond,
			BackoffMax:  8 * time.Millisecond,
			JitterSeed:  jitterSeed,
		})}, extra...)
		s, err := DialFunc(dial, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	senders := make([]*ResilientSender, sites)
	ss := make([]*soakSite, sites)
	for i := 0; i < sites; i++ {
		senders[i] = newSender(int64(i) + 1)
		ss[i] = newSoakSite(t, proto, SiteConfig{ID: i, D: d, W: w, Eps: eps}, senders[i])
	}

	// Seeded workload: row i goes to site i%sites, so both runs stream the
	// identical per-site subsequences.
	rng := rand.New(rand.NewSource(99))
	type row struct {
		t int64
		v []float64
	}
	evs := make([]row, rows)
	for i := range evs {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		evs[i] = row{t: int64(i + 1), v: v}
	}

	// wait blocks until the site's backlog is fully acknowledged; Flush
	// inside the loop retries dials killed by faults.
	wait := func(si int) {
		deadline := time.Now().Add(20 * time.Second)
		for senders[si].Pending() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("site %d: %d frames still unacknowledged (metrics %+v)", si, senders[si].Pending(), senders[si].Metrics())
			}
			senders[si].Flush()
			time.Sleep(200 * time.Microsecond)
		}
	}

	var restore func(Sender) (*soakSite, error)
	var senderCP SenderState
	var since []row // site-0 rows observed after the checkpoint

	for i, e := range evs {
		si := i % sites
		if err := ss[si].observe(e.t, e.v); err != nil {
			t.Fatalf("site %d row %d: %v", si, i, err)
		}
		wait(si)
		if si == 0 && restore != nil {
			since = append(since, e)
		}
		switch {
		case crash && i == cpAt:
			// Checkpoint site 0: protocol state + sender replay state. The
			// backlog is empty here (the soak drains per row), so the
			// checkpoint's job is carrying the sequence counter forward.
			restore = ss[0].checkpoint()
			senderCP = senders[0].State()
		case crash && i == crashAt:
			// Crash site 0: the process is gone, its in-memory state with
			// it. Resume from the checkpoint, re-feed the rows observed
			// since, and let the coordinator's dedup discard the deltas it
			// already consumed.
			senders[0].DiscardPending = true
			senders[0].Close()
			senders[0] = newSender(101)
			if err := senders[0].RestoreState(senderCP); err != nil {
				t.Fatal(err)
			}
			rs, err := restore(senders[0])
			if err != nil {
				t.Fatal(err)
			}
			ss[0] = rs
			for _, r := range since {
				if err := ss[0].observe(r.t, r.v); err != nil {
					t.Fatalf("re-feed t=%d: %v", r.t, err)
				}
				wait(0)
			}
		}
	}
	for si := 0; si < sites; si++ {
		if err := ss[si].advance(int64(rows)); err != nil {
			t.Fatalf("site %d advance: %v", si, err)
		}
		wait(si)
	}
	for si := 0; si < sites; si++ {
		senders[si].Close()
	}

	snap := coord.Snapshot()
	return soakResult{chat: snap.Chat, sum: coord.Sum(), cm: coord.Metrics()}
}

func soakInjector() *chaos.Injector {
	return chaos.New(chaos.Config{
		Seed:  2026,
		PDrop: 0.04, PCut: 0.03, PDup: 0.05,
		PReadCut: 0.02, PDialFail: 0.1,
	})
}

func runChaosSoak(t *testing.T, proto string, extra ...SenderOption) {
	if testing.Short() {
		t.Skip("chaos soak is a multi-second TCP test")
	}
	clean := runSoak(t, proto, nil, false, extra...)
	inj := soakInjector()
	faulty := runSoak(t, proto, inj, true, extra...)

	if len(clean.chat) != len(faulty.chat) {
		t.Fatalf("estimate sizes differ: %d vs %d", len(clean.chat), len(faulty.chat))
	}
	for i := range clean.chat {
		if clean.chat[i] != faulty.chat[i] {
			t.Fatalf("Ĉ[%d] differs: fault-free %v, chaos %v — delivery was not exactly-once in order",
				i, clean.chat[i], faulty.chat[i])
		}
	}
	if clean.sum != faulty.sum {
		t.Fatalf("Sum differs: %v vs %v", clean.sum, faulty.sum)
	}
	if clean.cm.Msgs != faulty.cm.Msgs {
		t.Fatalf("applied-message counts differ: fault-free %d, chaos %d — a delta was lost or double-applied",
			clean.cm.Msgs, faulty.cm.Msgs)
	}
	if faulty.cm.BadMsgs != 0 {
		t.Fatalf("%d frames rejected under chaos", faulty.cm.BadMsgs)
	}
	st := inj.Stats()
	// The accepted-but-undelivered drop is the fault this PR exists for;
	// the soak must actually exercise it, plus at least one other family.
	if st.Drops == 0 || st.Cuts+st.Dups+st.ReadCuts+st.DialFails == 0 {
		t.Fatalf("chaos fault mix too thin (stats %+v); the soak proved nothing", st)
	}
	t.Logf("proto %s: %d applied msgs, %d deduped replays; chaos %+v", proto, faulty.cm.Msgs, faulty.cm.DupMsgs, st)
}

func TestChaosSoakDA1(t *testing.T)  { runChaosSoak(t, "da1") }
func TestChaosSoakDA2(t *testing.T)  { runChaosSoak(t, "da2") }
func TestChaosSoakDA2C(t *testing.T) { runChaosSoak(t, "da2c") }

// The BinaryV2 soaks select the framing explicitly through WithCodec
// rather than taking the sender default, pinning that the option path
// builds the same v2 sender and keeps the delivery guarantee: the same
// seeded faults must still give a bit-identical estimate.
func TestChaosSoakDA1BinaryV2(t *testing.T) { runChaosSoak(t, "da1", WithCodec(BinaryV2)) }
func TestChaosSoakDA2BinaryV2(t *testing.T) { runChaosSoak(t, "da2", WithCodec(BinaryV2)) }
