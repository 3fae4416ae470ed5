package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// setups is how many timed set-ups a measured run makes after an untimed
// one; setup_s is their median.
const setups = 9

// usage is what the process consumed over a measured window, and the
// window's actual edges as offsets from the run start.
type usage struct {
	from, to time.Duration
	cpu      time.Duration // user + system
	allocs   uint64        // heap objects allocated
}

// hooks run at a watched window's edges (begin before the first reading,
// end after the last) and on every 50ms tick in between.
type hooks struct{ begin, tick, end func() }

const (
	allocsMetric = "/gc/heap/allocs:objects"
	liveMetric   = "/gc/heap/live:bytes"
)

// watch measures process usage over [from, to) of a run that starts at
// start. Receive from the channel to wait for it.
func watch(start time.Time, from, to time.Duration, h hooks) <-chan usage {
	ch := make(chan usage, 1)
	go func() {
		time.Sleep(time.Until(start.Add(from)))
		if h.begin != nil {
			h.begin()
		}
		u := usage{from: time.Since(start)}
		cpu, allocs := cpuTime(), readMetric(allocsMetric)
		var tick <-chan time.Time // nil, never ready, without a tick hook
		if h.tick != nil {
			t := time.NewTicker(50 * time.Millisecond)
			defer t.Stop()
			tick = t.C
		}
		end := time.NewTimer(time.Until(start.Add(to)))
		defer end.Stop()
	wait:
		for {
			select {
			case <-tick:
				h.tick()
			case <-end.C:
				break wait
			}
		}
		u.to, u.cpu, u.allocs = time.Since(start), cpuTime()-cpu, readMetric(allocsMetric)-allocs
		if h.end != nil {
			h.end()
		}
		ch <- u
	}()
	return ch
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// measured is a -trace 0 run: set-up (several times), warm-up, the measured
// window at the nominal rate, then the audit.
func measured(w *workload, seed int64, seconds int) (*result, error) {
	// The first deployment of a fresh process pays for growing the heap, so
	// it is built and discarded untimed; every set-up starts after a
	// collection, so none pays for the garbage of the one before.
	var setupS []float64
	var sys *system
	for i := 0; i <= setups; i++ {
		runtime.GC()
		s, err := startSystem(w, seed, nil)
		if err != nil {
			return nil, err
		}
		if i > 0 {
			setupS = append(setupS, s.setup.Seconds())
		}
		if i < setups {
			s.stop()
		} else {
			sys = s
		}
	}
	defer sys.stop()

	from, to := w.warmup, w.warmup+time.Duration(seconds)*time.Second
	sched := buildSchedule(seed, []phase{{w.rate, from}, {w.rate, to - from}}, opsSource(w, seed))
	start := time.Now()
	used := watch(start, from, to, hooks{})
	recs := (&openLoop{issuers: sys.issuers(), sleep: time.Sleep}).run(start, sched)
	use := <-used
	// The ledger lives in memory, so the live heap only grows over a run:
	// its size after a collection at the end is the run's peak.
	runtime.GC()
	live := readMetric(liveMetric)

	res := newResult()
	res.audit = audit(sys.d, sys.committed(sched, recs), auditBound)
	res.Correct = res.audit == nil
	win := summarise(sched, recs, from, to)
	res.Attempted, res.Failed = win.attempted, win.failed()
	fmt.Printf("%s  outcomes: %v\n", w.name, win.outcomes())
	fmt.Printf("%s  latency (ms) p10..p90: %s  p99: %.2f\n", w.name, deciles(win.lat), quantileMs(win.lat, 0.99))
	reportEndToEnd(res, committedBetween(recs, use.from, use.to), use, live, median(setupS))
	return res, nil
}

// deciles formats the 10th to 90th percentiles of sorted latencies.
func deciles(sorted []time.Duration) string {
	var b bytes.Buffer
	for i := 1; i <= 9; i++ {
		fmt.Fprintf(&b, " %.2f", quantileMs(sorted, float64(i)/10))
	}
	return b.String()
}

// reportEndToEnd sets every end-to-end metric of a measured run: committed
// verdicts and usage over the measured window, the live heap at its end and
// the median set-up time. CPU and allocations are whole-window averages, so
// garbage collection is charged in proportion however its cycles fall.
func reportEndToEnd(res *result, committed int, use usage, live uint64, setupS float64) {
	tx := float64(committed)
	res.set("goodput_tps", "tx/s", tx/(use.to-use.from).Seconds())
	res.set("cpu_us_per_tx", "us/tx", float64(use.cpu)/float64(time.Microsecond)/tx)
	res.set("allocs_per_tx", "allocs/tx", float64(use.allocs)/tx)
	res.set("peak_heap_mb", "MB", float64(live)/(1<<20))
	res.set("setup_s", "s", setupS)
}

// traced is a -trace 1 run. An untraced reference deployment runs the
// nominal window and then climbs the capacity ladder; a fresh deployment then
// runs the same nominal schedule with the fabric send counter, the CPU
// profile and metrics snapshots armed over its window; the layer probes run
// last.
func traced(w *workload, seed int64, seconds int) (*result, error) {
	half := time.Duration(seconds) * time.Second / 2
	from, to := w.warmup, w.warmup+half
	res := newResult()

	// Untraced reference, then the ladder.
	sys, err := startSystem(w, seed, nil)
	if err != nil {
		return nil, err
	}
	rung := half / time.Duration(len(w.ladder))
	phases := []phase{{w.rate, from}, {w.rate, half}}
	for _, r := range w.ladder {
		phases = append(phases, phase{r, rung})
	}
	sched := buildSchedule(seed, phases, opsSource(w, seed))
	start := time.Now()
	used := watch(start, from, to, hooks{})
	recs := (&openLoop{issuers: sys.issuers(), sleep: time.Sleep}).run(start, sched)
	base := <-used
	res.audit = audit(sys.d, sys.committed(sched, recs), auditBound)
	sys.stop()
	ref, refRecs := summarise(sched, recs, from, to), recs
	capacity := climb(w, sched, recs, ref, to, rung)

	// Traced run of the nominal schedule alone.
	sched = buildSchedule(seed, phases[:2], opsSource(w, seed))
	ctr := &sendCounter{}
	sys, err = startSystem(w, seed, ctr.wrap)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	var (
		m0, m1  metricSet
		prof    bytes.Buffer
		profErr error
	)
	gauges := newGaugeMax("apply_lag", "pipeline_depth")
	start = time.Now()
	used = watch(start, from, to, hooks{
		begin: func() {
			ctr.armed.Store(true)
			m0 = snapshotMetrics(sys.d)
			profErr = pprof.StartCPUProfile(&prof)
		},
		tick: func() { gauges.sample(sys.d) },
		end: func() {
			pprof.StopCPUProfile()
			m1 = snapshotMetrics(sys.d)
			ctr.armed.Store(false)
		},
	})
	recs = (&openLoop{issuers: sys.issuers(), sleep: time.Sleep}).run(start, sched)
	use := <-used
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	if err := audit(sys.d, sys.committed(sched, recs), auditBound); err != nil && res.audit == nil {
		res.audit = err
	}
	res.Correct = res.audit == nil
	win := summarise(sched, recs, from, to)
	res.Attempted = ref.attempted + win.attempted
	res.Failed = ref.failed() + win.failed()
	fmt.Printf("%s  outcomes: reference %v, traced %v\n", w.name, ref.outcomes(), win.outcomes())

	layers, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	ctr.mu.Lock()
	samples := ctr.samples
	ctr.mu.Unlock()
	probes, err := probeLayers(w, seed, samples)
	if err != nil {
		return nil, err
	}
	reportLayers(res, layerInputs{
		ref: ref, win: win, refRecs: refRecs, recs: recs, base: base, use: use, ctr: ctr,
		m0: m0, m1: m1, gauges: gauges, layers: layers, probes: probes, capacity: capacity,
		members: len(sys.d.Topo.Members(0)),
	})
	return res, nil
}

// passes applies the capacity SLO to one stretch of constant load.
func passes(w *workload, win *window) bool {
	return win.attempted > 0 && win.failFrac() <= 0.01 && !win.backlogGrows() &&
		quantileMs(win.lat, 0.99) <= float64(w.p99Limit)/float64(time.Millisecond)
}

// climb walks the capacity ladder that follows the nominal window (which
// ends at from) and returns the goodput of the highest rung that passes
// with every rung below it; the nominal window is the ladder's first rung.
func climb(w *workload, sched []arrival, recs []record, nominal *window, from, rung time.Duration) float64 {
	if !passes(w, nominal) {
		return 0
	}
	capacity := nominal.goodput()
	for i, rate := range w.ladder {
		rw := summarise(sched, recs, from, from+rung)
		from += rung
		ok := passes(w, rw)
		fmt.Printf("%s  rung %d: offered %.0f tx/s goodput %.1f tx/s p99 %.2f ms fail %.4f verdicts %d/%d pass=%v\n",
			w.name, i, rate, rw.goodput(), quantileMs(rw.lat, 0.99), rw.failFrac(),
			rw.verdicts, rw.attempted, ok)
		if !ok {
			break
		}
		capacity = rw.goodput()
	}
	return capacity
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
