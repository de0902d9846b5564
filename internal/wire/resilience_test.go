package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"distwindow/mat"
)

// flakyConn fails after a fixed number of writes.
type flakyConn struct {
	inner     io.WriteCloser
	remaining int
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.remaining <= 0 {
		return 0, errors.New("flaky: connection dropped")
	}
	f.remaining--
	return f.inner.Write(p)
}

func (f *flakyConn) Close() error { return f.inner.Close() }

func TestResilientSenderReplaysBacklogAfterReconnect(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coord := NewCoordinator(2)
	go coord.Serve(ln)

	dials := 0
	s := dialFunc(t, func() (io.WriteCloser, error) {
		dials++
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		// First connection dies after 2 writes (each Send flushes its
		// frame in one write, so this drops mid-stream).
		if dials == 1 {
			return &flakyConn{inner: conn, remaining: 2}, nil
		}
		return conn, nil
	})

	for i := 0; i < 20; i++ {
		if i == 2 {
			// The first connection's two frames were retired on write; let
			// them land before the third write kills the connection, so the
			// replay on the second connection cannot overtake them (the
			// coordinator's dedup horizon would drop them as replays).
			waitFor(t, func() bool { return coord.Metrics().Msgs == 2 })
		}
		if err := s.Send(Msg{Kind: DirectionAdd, V: []float64{1, 0}}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Flush() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if p := s.Pending(); p != 0 {
		t.Fatalf("%d messages still pending", p)
	}
	// All 20 unit outer products must have arrived exactly once:
	// ‖B‖_F² = trace(Ĉ) = 20.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if f := mat.FrobSq(coord.Sketch()); math.Abs(f-20) < 1e-6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sketch mass %v, want 20", mat.FrobSq(coord.Sketch()))
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	if dials < 2 {
		t.Fatalf("expected a reconnect, dials = %d", dials)
	}
}

// TestWriteOnlyKeepsUnflushedFrames: on a write-only transport a frame
// is retired only once its batch reached the connection. A Write that
// fails must leave the frame in the backlog, not lose it.
func TestWriteOnlyKeepsUnflushedFrames(t *testing.T) {
	var sink bytes.Buffer
	up := true
	s := dialFunc(t, func() (io.WriteCloser, error) {
		if !up {
			return nil, errors.New("down")
		}
		up = false
		return &flakyConn{inner: nopCloser{&sink}, remaining: 1}, nil
	})
	s.Send(Msg{Kind: SumDelta, Delta: 1})
	if p := s.Pending(); p != 0 {
		t.Fatalf("Pending = %d after a successful write, want 0", p)
	}
	s.Send(Msg{Kind: SumDelta, Delta: 2})
	if p := s.Pending(); p != 1 {
		t.Fatalf("Pending = %d after a failed write, want 1: the frame was lost", p)
	}
}

func TestResilientSenderBacklogLimit(t *testing.T) {
	s := dialFunc(t, func() (io.WriteCloser, error) {
		return nil, errors.New("unreachable")
	})
	s.MaxBacklog = 3
	for i := 0; i < 3; i++ {
		if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err == nil {
		t.Fatal("want error when backlog full")
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", s.Pending())
	}
}

func TestResilientSenderBuffersWhileDown(t *testing.T) {
	up := false
	var sink bytes.Buffer
	s := dialFunc(t, func() (io.WriteCloser, error) {
		if !up {
			return nil, errors.New("down")
		}
		return nopCloser{&sink}, nil
	})
	for i := 0; i < 5; i++ {
		if err := s.Send(Msg{Kind: SumDelta, Delta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5 while down", s.Pending())
	}
	up = true
	if left := s.Flush(); left != 0 {
		t.Fatalf("Flush left %d", left)
	}
	if sink.Len() == 0 {
		t.Fatal("nothing written after recovery")
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }

func TestSnapshotRoundTrip(t *testing.T) {
	c := NewCoordinator(3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		c.Apply(Msg{Kind: DirectionAdd, V: randRow(3, rng)})
	}
	c.Apply(Msg{Kind: SumDelta, Delta: 12.5})

	var buf bytes.Buffer
	if err := c.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Sketch().EqualApprox(c.Sketch(), 1e-12) {
		t.Fatal("restored sketch differs")
	}
	if restored.Sum() != c.Sum() {
		t.Fatal("restored sum differs")
	}
	m1, b1 := c.Stats()
	m2, b2 := restored.Stats()
	if m1 != m2 || b1 != b2 {
		t.Fatal("restored stats differ")
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	if _, err := RestoreCoordinator(Snapshot{D: 3, Chat: []float64{1, 2}}); err == nil {
		t.Fatal("want error for wrong chat length")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("want error for corrupt stream")
	}
}

func TestRestoredCoordinatorKeepsWorking(t *testing.T) {
	c := NewCoordinator(2)
	c.Apply(Msg{Kind: DirectionAdd, V: []float64{2, 0}})
	var buf bytes.Buffer
	c.WriteSnapshot(&buf)
	r, _ := ReadSnapshot(&buf)
	// Failover: the restored coordinator continues receiving updates.
	r.Apply(Msg{Kind: DirectionRemove, V: []float64{2, 0}})
	if mat.FrobSq(r.Sketch()) > 1e-9 {
		t.Fatal("restored coordinator should cancel to zero")
	}
}
