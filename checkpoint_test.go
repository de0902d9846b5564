package distwindow

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math/rand"
	"testing"
)

// runSplit drives rows[0:k] into a tracker, checkpoints, restores, drives
// rows[k:], and returns the restored tracker; the reference tracker sees
// all rows uninterrupted.
func runSplit(t *testing.T, cfg Config, rows []Row, sites []int, k int) (ref, restored *Tracker) {
	t.Helper()
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	half, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		mustObserve(t, ref, sites[i], r)
		if i < k {
			mustObserve(t, half, sites[i], r)
		}
	}
	var buf bytes.Buffer
	if err := half.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err = Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := k; i < len(rows); i++ {
		mustObserve(t, restored, sites[i], rows[i])
	}
	return ref, restored
}

func checkpointFixture(n, d, m int, seed int64) ([]Row, []int) {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	sites := make([]int, n)
	for i := range rows {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		rows[i] = Row{T: int64(i + 1), V: v}
		sites[i] = rng.Intn(m)
	}
	return rows, sites
}

func TestCheckpointDA1BitIdentical(t *testing.T) {
	cfg := Config{Protocol: DA1, D: 5, W: 400, Eps: 0.2, Sites: 3, Seed: 1}
	rows, sites := checkpointFixture(2000, 5, 3, 2)
	ref, restored := runSplit(t, cfg, rows, sites, 1000)
	if !ref.Sketch().Equal(restored.Sketch()) {
		t.Fatal("restored DA1 diverged from the uninterrupted run")
	}
}

func TestCheckpointDA2BitIdentical(t *testing.T) {
	cfg := Config{Protocol: DA2, D: 5, W: 400, Eps: 0.2, Sites: 3, Seed: 1}
	rows, sites := checkpointFixture(2000, 5, 3, 3)
	// Checkpoint mid-window (not at a boundary) to exercise ledger/queue
	// serialization.
	ref, restored := runSplit(t, cfg, rows, sites, 1100)
	if !ref.Sketch().Equal(restored.Sketch()) {
		t.Fatal("restored DA2 diverged from the uninterrupted run")
	}
}

func TestCheckpointDA2CBitIdentical(t *testing.T) {
	cfg := Config{Protocol: DA2C, D: 4, W: 300, Eps: 0.25, Sites: 2, Seed: 1}
	rows, sites := checkpointFixture(1500, 4, 2, 4)
	ref, restored := runSplit(t, cfg, rows, sites, 700)
	if !ref.Sketch().Equal(restored.Sketch()) {
		t.Fatal("restored DA2-C diverged from the uninterrupted run")
	}
}

func TestCheckpointAtWindowBoundary(t *testing.T) {
	cfg := Config{Protocol: DA2, D: 3, W: 250, Eps: 0.2, Sites: 2, Seed: 1}
	rows, sites := checkpointFixture(1000, 3, 2, 5)
	// k chosen so the last observed timestamp is exactly a boundary.
	ref, restored := runSplit(t, cfg, rows, sites, 500)
	if !ref.Sketch().Equal(restored.Sketch()) {
		t.Fatal("boundary checkpoint diverged")
	}
}

func TestCheckpointSamplingRefused(t *testing.T) {
	tr, _ := New(Config{Protocol: PWOR, D: 3, W: 100, Eps: 0.2, Sites: 2, Ell: 8})
	if tr.Checkpointable() {
		t.Fatal("sampling protocols must not claim checkpointability")
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err == nil {
		t.Fatal("want error checkpointing a sampling tracker")
	}
}

func TestCheckpointable(t *testing.T) {
	for p, want := range map[Protocol]bool{DA1: true, DA2: true, DA2C: true, PWOR: false, ESWOR: false} {
		tr, err := New(Config{Protocol: p, D: 3, W: 100, Eps: 0.2, Sites: 2, Ell: 8})
		if err != nil {
			t.Fatal(err)
		}
		if tr.Checkpointable() != want {
			t.Errorf("%s: Checkpointable = %v, want %v", p, tr.Checkpointable(), want)
		}
	}
}

func TestRestoreCorruptCheckpoint(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("want error for garbage input")
	}
}

func TestCheckpointRoundTripPreservesConfig(t *testing.T) {
	cfg := Config{Protocol: DA1, D: 4, W: 500, Eps: 0.1, Sites: 5, Seed: 9}
	tr, _ := New(cfg)
	rows, sites := checkpointFixture(300, 4, 5, 6)
	for i, r := range rows {
		mustObserve(t, tr, sites[i], r)
	}
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config() != cfg {
		t.Fatalf("restored config %+v != %+v", restored.Config(), cfg)
	}
	if restored.Name() != "DA1" {
		t.Fatalf("restored Name = %q", restored.Name())
	}
}

// tamper checkpoints tr, decodes the envelope, applies mutate, and
// re-encodes — a forged or mislabeled checkpoint file.
func tamper(t *testing.T, tr *Tracker, mutate func(*checkpointEnvelope)) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var env checkpointEnvelope
	if err := gob.NewDecoder(&buf).Decode(&env); err != nil {
		t.Fatal(err)
	}
	mutate(&env)
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(env); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(out.Bytes())
}

func trackerFor(t *testing.T, p Protocol) *Tracker {
	t.Helper()
	tr, err := New(Config{Protocol: p, D: 4, W: 400, Eps: 0.2, Sites: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, sites := checkpointFixture(200, 4, 3, 3)
	for i, r := range rows {
		mustObserve(t, tr, sites[i], r)
	}
	return tr
}

func TestRestoreCorruptSentinel(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("garbage input: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestRestoreRejectsInvalidConfig(t *testing.T) {
	r := tamper(t, trackerFor(t, DA1), func(env *checkpointEnvelope) {
		env.Config.Eps = 0 // fails Config.Validate
	})
	if _, err := Restore(r); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("invalid config: got %v, want ErrCheckpointCorrupt", err)
	}
}

func TestRestoreRejectsProtocolMismatch(t *testing.T) {
	cases := []struct {
		name   string
		p      Protocol
		mutate func(*checkpointEnvelope)
	}{
		{"header disagrees with config", DA1, func(env *checkpointEnvelope) {
			env.Protocol = DA2
		}},
		{"DA1 header over DA2 state", DA2, func(env *checkpointEnvelope) {
			env.Protocol = DA1
			env.Config.Protocol = DA1
		}},
		{"DA2 header over compressed state", DA2C, func(env *checkpointEnvelope) {
			env.Protocol = DA2
			env.Config.Protocol = DA2
		}},
		{"DA2C header over plain state", DA2, func(env *checkpointEnvelope) {
			env.Protocol = DA2C
			env.Config.Protocol = DA2C
		}},
		{"state stripped", DA2, func(env *checkpointEnvelope) {
			env.DA2 = nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tamper(t, trackerFor(t, tc.p), tc.mutate)
			if _, err := Restore(r); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("got %v, want ErrCheckpointMismatch", err)
			}
		})
	}
}
