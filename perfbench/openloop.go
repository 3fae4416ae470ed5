package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sharper/internal/types"
)

// outcome classifies one arrival's verdict. Every class except committed
// counts as a failure against the number attempted.
type outcome uint8

const (
	outPending    outcome = iota
	outCommitted          // committed verdict quorum
	outRejected           // ordered but rejected by validation
	outOverloaded         // gateway shed the submit (mempool full)
	outExpired            // gateway refused a stale timestamp
	outTimeout            // every retransmission timed out
	outDropped            // harness drop: no gateway client was free when due
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"pending", "committed", "rejected", "overloaded", "expired", "timeout", "drop"}

func (o outcome) String() string { return outcomeNames[o] }

// arrival is one scheduled transaction: when it is due (offset from the
// start of the run) and what it does.
type arrival struct {
	due   time.Duration
	ops   []types.Op
	cross bool
}

// record is what happened to one arrival. lateness is how far behind its due
// time the scheduler handed it out; done is when its verdict arrived. Both
// done and the latency derived from it are measured from the run start, so a
// stalled generator shows up in every arrival it delayed.
type record struct {
	id       types.TxID
	lateness time.Duration
	done     time.Duration
	out      outcome
}

// issuer submits one transaction and blocks until its verdict.
type issuer func(ops []types.Op) (types.TxID, outcome)

// poissonTimes returns the arrival offsets of a Poisson process of the given
// rate over [0, span), conditioned on holding exactly round(rate·span)
// arrivals: the gaps are exponential draws normalised to the span, which is
// the uniform-order-statistics form of a conditioned Poisson process. Fixing
// the count keeps the offered load identical from seed to seed, so the spread
// of a metric across seeds is the system's, not the generator's.
func poissonTimes(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	n := int(math.Round(rate * span.Seconds()))
	if n <= 0 {
		return nil
	}
	cum := make([]float64, n+1)
	var sum float64
	for i := range cum {
		sum += rng.ExpFloat64()
		cum[i] = sum
	}
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		out[i] = time.Duration(cum[i] / sum * float64(span))
	}
	return out
}

// phase is one stretch of constant offered load.
type phase struct {
	rate float64
	span time.Duration
}

// buildSchedule lays the phases end to end and draws each arrival's
// operations from next. The schedule is a pure function of the seed.
func buildSchedule(seed int64, phases []phase, next func() ([]types.Op, bool)) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var out []arrival
	var base time.Duration
	for _, p := range phases {
		for _, t := range poissonTimes(rng, p.rate, p.span) {
			ops, cross := next()
			out = append(out, arrival{due: base + t, ops: ops, cross: cross})
		}
		base += p.span
	}
	return out
}

// openLoop runs a schedule open-loop. One goroutine (the caller of run) sleeps
// until each arrival is due and hands it to an idle issuer; an arrival that
// finds every issuer busy is dropped by the harness rather than queued, so the
// offered load never adapts to the system.
type openLoop struct {
	issuers []issuer
	// sleep waits between arrivals (time.Sleep outside tests, where an
	// injected stall stands in for a descheduled generator).
	sleep func(time.Duration)
}

// run drives the schedule and returns one record per arrival, in schedule
// order, once every issued submit has its verdict. start is the instant the
// schedule's offsets are measured from.
func (d *openLoop) run(start time.Time, sched []arrival) []record {
	recs := make([]record, len(sched))
	work := make(chan int)
	var wg, ready sync.WaitGroup
	wg.Add(len(d.issuers))
	ready.Add(len(d.issuers))
	for _, is := range d.issuers {
		go func(issue issuer) {
			defer wg.Done()
			ready.Done()
			for i := range work {
				id, out := issue(sched[i].ops)
				recs[i].done = time.Since(start)
				recs[i].id, recs[i].out = id, out
			}
		}(is)
	}
	ready.Wait()
	for i := range sched {
		if wait := sched[i].due - time.Since(start); wait > 0 {
			d.sleep(wait)
		}
		now := time.Since(start)
		recs[i].lateness = now - sched[i].due
		select {
		case work <- i:
		default:
			recs[i].done = now
			recs[i].out = outDropped
		}
	}
	close(work)
	wg.Wait()
	return recs
}

// window summarises the arrivals due in [from, to).
type window struct {
	from, to time.Duration

	attempted int
	counts    [numOutcomes]int
	// committedDone counts committed verdicts that arrived inside the
	// window (goodput's numerator, whichever arrival they answer);
	// verdicts counts every verdict that did, drops included.
	committedDone, verdicts int
	lat                     []time.Duration // committed arrivals, due → verdict, sorted
	intraLat                []time.Duration
	crossLat                []time.Duration
	lateness                []time.Duration // sorted
}

func summarise(sched []arrival, recs []record, from, to time.Duration) *window {
	w := &window{from: from, to: to}
	for i, a := range sched {
		r := recs[i]
		if r.done >= from && r.done < to {
			w.verdicts++
			if r.out == outCommitted {
				w.committedDone++
			}
		}
		if a.due < from || a.due >= to {
			continue
		}
		w.attempted++
		w.counts[r.out]++
		w.lateness = append(w.lateness, r.lateness)
		if r.out != outCommitted {
			continue
		}
		lat := r.done - a.due
		w.lat = append(w.lat, lat)
		if a.cross {
			w.crossLat = append(w.crossLat, lat)
		} else {
			w.intraLat = append(w.intraLat, lat)
		}
	}
	for _, s := range [][]time.Duration{w.lat, w.intraLat, w.crossLat, w.lateness} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	return w
}

// outcomes names the non-zero outcome counts.
func (w *window) outcomes() map[string]int {
	m := make(map[string]int)
	for o, n := range w.counts {
		if n > 0 {
			m[outcome(o).String()] = n
		}
	}
	return m
}

// failed counts every attempted arrival that did not commit.
func (w *window) failed() int { return w.attempted - w.counts[outCommitted] }

// failFrac is failed ÷ attempted.
func (w *window) failFrac() float64 {
	if w.attempted == 0 {
		return 0
	}
	return float64(w.failed()) / float64(w.attempted)
}

// goodput is committed verdicts per second of window.
func (w *window) goodput() float64 {
	return float64(w.committedDone) / (w.to - w.from).Seconds()
}

// committedBetween counts committed verdicts that arrived in [from, to).
func committedBetween(recs []record, from, to time.Duration) int {
	n := 0
	for _, r := range recs {
		if r.out == outCommitted && r.done >= from && r.done < to {
			n++
		}
	}
	return n
}

// backlogGrows reports whether the system answered fewer than 90% as many
// verdicts inside the window as arrivals fell due in it: at a steady offered
// rate the two match, so a shortfall is work piling up. The 10% slack covers
// the lag after a step up in rate, one latency's worth of the step.
func (w *window) backlogGrows() bool {
	return float64(w.verdicts) < 0.9*float64(w.attempted)
}

// quantileMs returns the q-quantile of sorted durations in milliseconds (0
// for an empty sample).
func quantileMs(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}
