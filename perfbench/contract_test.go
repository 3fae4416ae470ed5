package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func declared(list []struct{ Name, Unit string }) map[string]string {
	m := make(map[string]string)
	for _, e := range list {
		m[e.Name] = e.Unit
	}
	return m
}

func emitted(r *result) map[string]string {
	m := make(map[string]string)
	for n, v := range r.Metrics {
		m[n] = v.Unit
	}
	return m
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)

	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(names)
	sort.Strings(ours)
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, ours)
	}

	sched := []arrival{{due: 0}}
	recs := []record{{done: time.Millisecond, out: outCommitted}}
	use := usage{from: 0, to: time.Second, cpu: time.Millisecond}
	e2e := newResult()
	reportEndToEnd(e2e, 1, use, 1<<20, 0.1)
	if got, want := emitted(e2e), declared(f.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics\n got  %v\n want %v", got, want)
	}

	win := summarise(sched, recs, 0, time.Second)
	layers := newResult()
	reportLayers(layers, layerInputs{
		ref: win, win: win, refRecs: recs, recs: recs, base: use, use: use,
		ctr: &sendCounter{}, gauges: newGaugeMax(), layers: map[string]int64{}, probes: map[string]float64{},
	})
	if got, want := emitted(layers), declared(f.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics\n got  %v\n want %v", got, want)
	}
}
