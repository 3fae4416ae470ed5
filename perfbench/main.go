// Command perfbench is the repository's benchmark: it drives a SharPer
// deployment open-loop through the client gateway, checks the ledger after
// every run, and prints end-to-end metrics (or, with -trace 1, per-layer
// metrics from a separate traced run) as one JSON object on the last line.
//
//	go build -o perfbench . && ./perfbench -workload intra-tcp -seed 1 -seconds 20 -trace 0
//
// -workload all runs every workload in turn and exits non-zero if any run's
// audit fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// auditBound caps how long the audit waits for the deployment to converge
// after load stops.
const auditBound = 15 * time.Second

// maxProcs caps GOMAXPROCS so that figures from hosts with more cores stay
// comparable with the two-core hosts the bounds were set on.
const maxProcs = 2

func main() {
	name := flag.String("workload", "", "workload name, or \"all\"")
	seed := flag.Int64("seed", 1, "seed for arrivals, transactions and the deployment")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()

	if runtime.NumCPU() > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -seconds >= 2 and -trace 0 or 1")
		os.Exit(2)
	}

	var run []*workload
	if *name == "all" {
		run = workloads
	} else if w := lookupWorkload(*name); w != nil {
		run = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}

	ok := true
	for _, w := range run {
		var res *result
		var err error
		if *trace == 1 {
			res, err = traced(w, *seed, *seconds)
		} else {
			res, err = measured(w, *seed, *seconds)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(w.name)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	audit error
}

func newResult() *result { return &result{Metrics: make(map[string]metric)} }

func (r *result) set(name, unit string, v float64) {
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// print writes one line per metric, then the JSON object as the last line.
func (r *result) print(workload string) {
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Printf("%s  %-34s %14.4f %s\n", workload, n, m.Value, m.Unit)
	}
	if r.audit != nil {
		fmt.Printf("%s  ledger audit FAILED: %v\n", workload, r.audit)
	} else {
		fmt.Printf("%s  ledger audit passed (attempted=%d failed=%d)\n", workload, r.Attempted, r.Failed)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
