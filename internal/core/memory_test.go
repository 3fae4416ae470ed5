package core

import (
	"runtime"
	"testing"

	"sharper/internal/types"
)

// TestDeploymentMemoryBudget builds the benchmark's Byzantine LAN shape
// (four PBFT clusters at f=1 on the simulated fabric, 1024 accounts per
// shard) plus 512 gateway clients and bounds the live heap they hold before
// any traffic. Inbox and reply-cache capacities are bounds, not
// allocations, so an idle deployment must stay small.
func TestDeploymentMemoryBudget(t *testing.T) {
	const budget = 32 << 20
	before := liveHeap()
	d, err := NewDeployment(Config{
		Model: types.Byzantine, Clusters: 4, F: 1,
		Transport: TransportSim, BatchSize: 16, NoPersist: true, Seed: 11,
	})
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	d.SeedAccounts(1024, 1<<40)
	d.Start()
	defer d.Stop()
	clients := make([]*GatewayClient, 512)
	for i := range clients {
		clients[i] = d.NewGatewayClient()
	}
	grown := liveHeap() - before
	runtime.KeepAlive(clients)
	t.Logf("deployment + %d clients hold %.1f MB", len(clients), float64(grown)/(1<<20))
	if grown >= budget {
		t.Fatalf("deployment + %d clients hold %.1f MB, budget %d MB",
			len(clients), float64(grown)/(1<<20), budget>>20)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
