package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"testing"

	"distwindow/internal/obs/telemetry"
)

// readWriter joins a frame source and an ack sink into the connection
// shape HandleConn acks on.
type readWriter struct {
	io.Reader
	io.Writer
}

// v2Stream encodes msgs as one binary v2 stream (Hello included).
func v2Stream(tb testing.TB, msgs ...Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := BinaryV2.NewEncoder(&buf)
	for i := range msgs {
		if err := enc.EncodeMsg(&msgs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// gobStream encodes msgs with encoding/gob: the framing of a peer that
// does not speak v2.
func gobStream(tb testing.TB, msgs ...Msg) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, m := range msgs {
		if err := enc.Encode(m); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// nanStream is a CRC-valid v2 stream whose middle frame carries a NaN
// direction row.
func nanStream(tb testing.TB) []byte {
	return v2Stream(tb,
		Msg{Site: 0, Kind: DirectionAdd, T: 1, Seq: 1, V: []float64{1, 0}},
		Msg{Site: 0, Kind: DirectionAdd, T: 2, Seq: 2, V: []float64{math.NaN(), 1}},
		Msg{Site: 0, Kind: DirectionAdd, T: 3, Seq: 3, V: []float64{0, 1}},
	)
}

// assertFinite fails unless every entry of every stream's Ĉ and sum is
// finite.
func assertFinite(tb testing.TB, c *Coordinator) {
	tb.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	check := func(id string, e *streamEst) {
		if !allFinite(e.chat.Data()) || !allFinite([]float64{e.sum}) {
			tb.Fatalf("stream %q holds a non-finite estimate: sum %v, Ĉ %v", id, e.sum, e.chat.Data())
		}
	}
	check("", &c.def)
	for id, e := range c.streams {
		check(id, e)
	}
}

// TestHandleConnRejectsNonFiniteDelta: a CRC-valid frame carrying NaN is
// rejected like any malformed frame — counted, acked, never folded into
// Ĉ — and the frames around it still apply.
func TestHandleConnRejectsNonFiniteDelta(t *testing.T) {
	c := NewCoordinator(2)
	var acks bytes.Buffer
	if err := c.HandleConn(readWriter{bytes.NewReader(nanStream(t)), &acks}); err != nil {
		t.Fatal(err)
	}
	assertFinite(t, c)
	cm := c.Metrics()
	if cm.BadMsgs != 1 || cm.Msgs != 2 {
		t.Fatalf("BadMsgs=%d Msgs=%d, want 1 rejected and 2 applied", cm.BadMsgs, cm.Msgs)
	}
	if cm.AckedMsgs != 3 {
		t.Fatalf("AckedMsgs = %d, want 3: a rejected frame is still consumed", cm.AckedMsgs)
	}
	if err := c.Apply(Msg{Site: 1, Kind: SumDelta, Delta: math.Inf(-1)}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Apply(-Inf sum delta) = %v, want ErrNonFinite", err)
	}
	assertFinite(t, c)
}

// TestHandleConnRejectsGobStream: bytes in another framing are corrupt
// frames, never decoded as messages.
func TestHandleConnRejectsGobStream(t *testing.T) {
	c := NewCoordinator(2)
	raw := gobStream(t,
		Msg{Site: 0, Kind: DirectionAdd, T: 1, Seq: 1, V: []float64{3, 4}},
		Msg{Site: 1, Kind: SumDelta, T: 2, Seq: 1, Delta: 7},
	)
	if err := c.HandleConn(readWriter{bytes.NewReader(raw), io.Discard}); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("HandleConn on a gob stream: %v", err)
	}
	cm := c.Metrics()
	if cm.Msgs != 0 || cm.BadMsgs == 0 {
		t.Fatalf("Msgs=%d BadMsgs=%d, want nothing applied and the bytes rejected", cm.Msgs, cm.BadMsgs)
	}
	if c.Sum() != 0 {
		t.Fatalf("Sum = %v, want 0", c.Sum())
	}
}

// FuzzHandleConn feeds arbitrary bytes to a fresh coordinator. Whatever
// arrives, HandleConn must return without panicking, and every estimate
// must stay finite.
func FuzzHandleConn(f *testing.F) {
	f.Add(v2Stream(f,
		Msg{Site: 0, Kind: DirectionAdd, T: 1, Seq: 1, V: []float64{1, 2}},
		Msg{Site: 1, Kind: SumDelta, T: 2, Seq: 1, Delta: 0.5, StreamID: "s", Trace: 3, Span: 4},
		Msg{Site: 0, Kind: DirectionRemove, T: 3, Seq: 2, V: []float64{1, 2}},
		Msg{Site: 1, Kind: Telemetry, Tele: &telemetry.Frame{Site: 1, Stream: "s", Rows: 9}},
	))
	f.Add(gobStream(f, Msg{Site: 0, Kind: DirectionAdd, T: 1, Seq: 1, V: []float64{1, 2}}))
	f.Add(nanStream(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCoordinator(2, WithTelemetry())
		_ = c.HandleConn(readWriter{bytes.NewReader(data), io.Discard})
		assertFinite(t, c)
	})
}
