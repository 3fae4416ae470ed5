//go:build !race

package core

import (
	"testing"
	"time"
)

// TestCoordinatorIdleAllocs pins the idle cost of the two hooks every node
// runs on each timer tick (and after every chain advance): with nothing in
// flight they must not allocate under either vote policy.
func TestCoordinatorIdleAllocs(t *testing.T) {
	for _, m := range coordinatorModels {
		t.Run(m.name, func(t *testing.T) {
			h := newXHarness(t, m.model, 2)
			p0 := h.topo.Primary(0, 0)
			// Decide one batch, then let its retransmission schedule run out,
			// so the maps are warm but nothing is live.
			h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
			h.pump()
			for i := 0; i <= maxCommitResends; i++ {
				h.tick(time.Second)
			}
			x := h.engines[p0]
			now := h.now
			allocs := testing.AllocsPerRun(200, func() {
				now = now.Add(5 * time.Millisecond)
				x.Tick(now)
				x.OnChainAdvanced(now)
			})
			if allocs != 0 {
				t.Fatalf("idle Tick+OnChainAdvanced allocates %.1f times per call", allocs)
			}
		})
	}
}
