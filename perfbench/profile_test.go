package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOfFrames(t *testing.T) {
	for _, c := range []struct{ fn, file, want string }{
		{"sharper/internal/core.(*gateway).onSubmit", "/src/internal/core/gateway.go", "core.gateway"},
		{"sharper/internal/core.(*GatewayClient).Submit", "/src/internal/core/gatewayclient.go", "core.gateway"},
		{"sharper/internal/core.(*executor).run", "/src/internal/core/exec.go", "core.exec"},
		{"sharper/internal/core.(*byzCross).onAccept", "/src/internal/core/crossbyz.go", "core.cross"},
		{"sharper/internal/core.(*Node).loop", "/src/internal/core/node.go", "core.node"},
		{"sharper/internal/transport/tcpnet.(*Net).Send", "/src/internal/transport/tcpnet/tcpnet.go", "transport"},
		{"sharper/internal/pbft.(*Engine).Step", "/src/internal/pbft/pbft.go", "pbft"},
		{"sharper/internal/consensus.(*ConflictTable).Acquire", "/src/internal/consensus/conflict.go", "consensus"},
		{"sharper/internal/workload.(*Generator).Next", "/src/internal/workload/workload.go", "harness"},
		{"sharper/internal/slasher.(*Slasher).Observe", "/src/internal/slasher/slasher.go", "other"},
		{"runtime.mallocgc", "/go/src/runtime/malloc.go", ""},
		{"main.(*openLoop).run", "/src/perfbench/openloop.go", ""},
	} {
		if got := layerOf(c.fn, c.file); got != c.want {
			t.Errorf("layerOf(%s, %s) = %q, want %q", c.fn, c.file, got, c.want)
		}
	}
}

func TestClassifyStacks(t *testing.T) {
	for _, c := range []struct {
		stack []frame
		want  string
	}{
		// Allocation inside a layer is that layer's cost.
		{[]frame{{"runtime.mallocgc", ""}, {"sharper/internal/types.(*Block).Encode", "tx.go"}, {"sharper/internal/core.(*Node).loop", "node.go"}}, "types"},
		{[]frame{{"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker", ""}, {"runtime.goexit", ""}}, "runtime"},
		{[]frame{{"syscall.Syscall6", ""}, {"main.cpuTime", "run.go"}, {"runtime.goexit", ""}}, "harness"},
		{[]frame{{"crypto/sha256.block", ""}, {"runtime.goexit", ""}}, "other"},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// spin burns CPU inside this package (register arithmetic only, so no
// frame outside it is sampled) and the profile should attribute it to the
// harness.
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 10000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestFoldProfileAttributesHarness(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()
	layers, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range layers {
		total += ns
	}
	if total == 0 {
		t.Fatal("profile folded to no CPU time")
	}
	if share := float64(layers["harness"]) / float64(total); share < 0.5 {
		t.Fatalf("harness holds %.0f%% of profiled CPU (%v), want the spin loop's majority", 100*share, layers)
	}
}
