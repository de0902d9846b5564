package main

import (
	"time"
)

// failedQueryLatency is the latency a failed query is recorded with: a
// failure misses any latency limit, so it lands in the tail.
const failedQueryLatency = time.Hour

// querySamples accumulates what an open-loop query generator measured.
type querySamples struct {
	// latency is each query's completion time minus its due time; lag is
	// how late the generator issued it (start minus due time).
	latency, lag       []time.Duration
	attempted, failed  int64
	repeats, versioned int64
	seen               map[[2]uint64]bool
	firstErr           error
}

// note records one query's (stream, version) pair, counting a repeat when
// the pair was queried before.
func (q *querySamples) note(stream int, version uint64) {
	if q.seen == nil {
		q.seen = make(map[[2]uint64]bool)
	}
	k := [2]uint64{uint64(stream), version}
	if q.seen[k] {
		q.repeats++
	}
	q.seen[k] = true
	q.versioned++
}

// openLoop issues queries on a fixed schedule — the i-th is due at
// start + i/rate — until stop is closed. It never slows down when the
// system does: a query that comes due while an earlier one is still
// running is issued late, and its latency still counts from its due time.
// query returns an error for a failed query, which counts against the
// attempts and is recorded with failedQueryLatency. openLoop returns once
// stop is closed and the query in flight, if any, has finished.
func openLoop(rate float64, stop <-chan struct{}, q *querySamples, query func() error) {
	period := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		began := time.Now()
		err := query()
		lat := time.Since(due)
		q.attempted++
		if err != nil {
			q.failed++
			if q.firstErr == nil {
				q.firstErr = err
			}
			lat = failedQueryLatency
		}
		q.lag = append(q.lag, began.Sub(due))
		q.latency = append(q.latency, lat)
	}
}
