package main

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sharper/internal/core"
	"sharper/internal/types"
)

func testSchedule(seed int64) []arrival {
	w := lookupWorkload("byz-cross-sim")
	return buildSchedule(seed, []phase{{1000, 200 * time.Millisecond}, {2000, 100 * time.Millisecond}}, opsSource(w, seed))
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	a, b := testSchedule(7), testSchedule(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if len(a) != 400 {
		t.Fatalf("schedule holds %d arrivals, want exactly 200+200", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due %v before arrival %d due %v", i, a[i].due, i-1, a[i-1].due)
		}
	}
	if last := a[len(a)-1].due; last >= 300*time.Millisecond {
		t.Fatalf("last arrival due %v, past the schedule's span", last)
	}
	if reflect.DeepEqual(a, testSchedule(8)) {
		t.Fatal("different seeds gave the same schedule")
	}
}

// committer is a fake issuer that commits instantly.
func committer(ops []types.Op) (types.TxID, outcome) { return types.TxID{}, outCommitted }

func TestGeneratorStallShowsInLatency(t *testing.T) {
	const stall = 80 * time.Millisecond
	sched := make([]arrival, 100)
	for i := range sched {
		sched[i].due = time.Duration(i) * time.Millisecond
	}
	// One issuer per arrival, so the burst after the stall never drops.
	issuers := make([]issuer, len(sched))
	for i := range issuers {
		issuers[i] = committer
	}
	calls := 0
	d := &openLoop{
		issuers: issuers,
		sleep: func(wait time.Duration) {
			calls++
			if calls == 10 {
				wait += stall // the generator is descheduled once
			}
			time.Sleep(wait)
		},
	}
	start := time.Now()
	recs := d.run(start, sched)
	win := summarise(sched, recs, 0, 100*time.Millisecond)
	if win.counts[outCommitted] != len(sched) {
		t.Fatalf("outcomes %v, want every arrival committed", win.outcomes())
	}
	// Arrivals due during the stall were sent late; timed from their due
	// time, their latency carries the wait although the issuer is instant.
	if got := quantileMs(win.lat, 1); got < float64(stall/2)/1e6 {
		t.Fatalf("max latency %.2fms does not show the %v stall", got, stall)
	}
	if got := quantileMs(win.lateness, 1); got < float64(stall/2)/1e6 {
		t.Fatalf("max generator lateness %.2fms does not show the %v stall", got, stall)
	}
	for i, r := range recs {
		if lat := r.done - sched[i].due; lat < r.lateness {
			t.Fatalf("arrival %d: latency %v below its lateness %v", i, lat, r.lateness)
		}
	}
}

func TestArrivalsWithNoFreeIssuerAreHarnessDrops(t *testing.T) {
	sched := make([]arrival, 5)
	recs := (&openLoop{sleep: time.Sleep}).run(time.Now(), sched)
	win := summarise(sched, recs, 0, time.Second)
	if win.counts[outDropped] != 5 || win.failFrac() != 1 {
		t.Fatalf("outcomes %v, want 5 harness drops", win.outcomes())
	}
}

func TestClassifySubmit(t *testing.T) {
	for _, c := range []struct {
		committed bool
		err       error
		want      outcome
	}{
		{true, nil, outCommitted},
		{false, nil, outRejected},
		{false, core.ErrOverloaded, outOverloaded},
		{false, fmt.Errorf("submit: %w", core.ErrExpired), outExpired},
		{false, errors.New("core: submit timed out after 8 attempts"), outTimeout},
	} {
		if got := classifySubmit(c.committed, c.err); got != c.want {
			t.Errorf("classifySubmit(%v, %v) = %v, want %v", c.committed, c.err, got, c.want)
		}
	}
}

func TestWindowAccounting(t *testing.T) {
	ms := time.Millisecond
	sched := []arrival{{due: 0}, {due: 10 * ms, cross: true}, {due: 20 * ms}, {due: 30 * ms}, {due: 200 * ms}}
	recs := []record{
		{done: 5 * ms, out: outCommitted},
		{done: 40 * ms, out: outCommitted},
		{done: 20 * ms, out: outDropped},
		{done: 90 * ms, out: outTimeout},
		{done: 201 * ms, out: outCommitted},
	}
	w := summarise(sched, recs, 0, 100*ms)
	if w.attempted != 4 || w.failed() != 2 || w.counts[outDropped] != 1 || w.counts[outTimeout] != 1 {
		t.Fatalf("attempted %d failed %d outcomes %v", w.attempted, w.failed(), w.outcomes())
	}
	if len(w.intraLat) != 1 || len(w.crossLat) != 1 || w.crossLat[0] != 30*ms {
		t.Fatalf("intra %v cross %v", w.intraLat, w.crossLat)
	}
	if got := committedBetween(recs, 0, 100*ms); got != 2 {
		t.Fatalf("committed verdicts in window = %d, want 2", got)
	}
	if w.backlogGrows() {
		t.Fatal("every arrival of the window was answered inside it, yet the backlog grows")
	}
	// Three arrivals due in [0, 30ms), two verdicts inside it.
	if w := summarise(sched, recs, 0, 30*ms); !w.backlogGrows() {
		t.Fatalf("%d verdicts for %d arrivals, want a growing backlog", w.verdicts, w.attempted)
	}
}
