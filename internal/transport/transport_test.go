package transport

import (
	"encoding/binary"
	"testing"
	"time"

	"sharper/internal/types"
)

func locateAll(types.NodeID) (types.ClusterID, bool) { return 0, true }

// TestHopOverhead measures real delivery delay vs configured latency.
func TestHopOverhead(t *testing.T) {
	cfg := Config{IntraClusterLatency: 100 * time.Microsecond, InboxSize: 64}
	n := New(cfg, locateAll)
	a, b := types.NodeID(0), types.NodeID(1)
	n.Register(a)
	inboxB := n.Register(b)

	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
		<-inboxB
	}
	per := time.Since(start) / rounds
	t.Logf("per-hop effective delay: %v (configured %v)", per, cfg.IntraClusterLatency)
}

func twoNodes(cfg Config) (*Network, types.NodeID, types.NodeID, <-chan *types.Envelope) {
	n := New(cfg, func(id types.NodeID) (types.ClusterID, bool) {
		return types.ClusterID(uint32(id) % 2), true // nodes 0,2,… in cluster 0; 1,3,… in cluster 1
	})
	a, b := types.NodeID(0), types.NodeID(1)
	n.Register(a)
	return n, a, b, n.Register(b)
}

func TestDeliveryAndStats(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{IntraClusterLatency: 50 * time.Microsecond})
	defer n.Close()
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest, Payload: []byte("hi")})
	env := <-inboxB
	if env.From != a || string(env.Payload) != "hi" {
		t.Fatalf("bad delivery: %+v", env)
	}
	if n.Stats().Sent.Load() != 1 || n.Stats().Delivered.Load() != 1 {
		t.Fatal("stats mismatch")
	}
}

func TestCrashBlocksDelivery(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{})
	defer n.Close()
	n.Crash(b)
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
		t.Fatal("crashed node received a message")
	case <-time.After(20 * time.Millisecond):
	}
	n.Restart(b)
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
	case <-time.After(time.Second):
		t.Fatal("restarted node received nothing")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{})
	defer n.Close()
	n.Partition([]types.NodeID{a}, []types.NodeID{b})
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
		t.Fatal("message crossed the partition")
	case <-time.After(20 * time.Millisecond):
	}
	n.HealPartition()
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
	case <-time.After(time.Second):
		t.Fatal("message lost after heal")
	}
}

// TestPairwiseHeal: two overlapping partitions installed by separate calls
// must be liftable independently — healing the a↔b cut must not reconnect
// a↔c. HealPartition's all-or-nothing semantics can't express that, which is
// what Heal exists for (the partition+equivocation combo scenarios lift one
// cut while keeping the other).
func TestPairwiseHeal(t *testing.T) {
	n := New(Config{}, locateAll)
	defer n.Close()
	a, b, c := types.NodeID(0), types.NodeID(1), types.NodeID(2)
	n.Register(a)
	inboxB := n.Register(b)
	inboxC := n.Register(c)

	n.Partition([]types.NodeID{a}, []types.NodeID{b})
	n.Partition([]types.NodeID{a}, []types.NodeID{c})
	n.Heal([]types.NodeID{a}, []types.NodeID{b})

	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
	case <-time.After(time.Second):
		t.Fatal("healed pair still partitioned")
	}
	n.Send(c, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxC:
		t.Fatal("pairwise heal lifted an unrelated partition")
	case <-time.After(20 * time.Millisecond):
	}
	// Both directions of the healed pair are open.
	inboxA := n.Register(a)
	n.Send(a, &types.Envelope{From: b, Type: types.MsgRequest})
	select {
	case <-inboxA:
	case <-time.After(time.Second):
		t.Fatal("reverse direction still partitioned after heal")
	}
}

func TestDropProbability(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{DropProb: 1.0})
	defer n.Close()
	for i := 0; i < 10; i++ {
		n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	}
	select {
	case <-inboxB:
		t.Fatal("message delivered despite DropProb=1")
	case <-time.After(20 * time.Millisecond):
	}
	if n.Stats().Dropped.Load() != 10 {
		t.Fatalf("dropped = %d, want 10", n.Stats().Dropped.Load())
	}
}

func TestDuplication(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{DupProb: 1.0})
	defer n.Close()
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	got := 0
	deadline := time.After(time.Second)
	for got < 2 {
		select {
		case <-inboxB:
			got++
		case <-deadline:
			t.Fatalf("got %d copies, want 2", got)
		}
	}
}

func TestProcessingTimeCapsThroughput(t *testing.T) {
	// With 1ms per message, node b can absorb at most ~1000 msg/s; 100
	// messages must take ≥ ~90ms to deliver fully.
	n, a, b, inboxB := twoNodes(Config{ProcessingTime: time.Millisecond})
	defer n.Close()
	start := time.Now()
	const msgs = 100
	for i := 0; i < msgs; i++ {
		n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	}
	for i := 0; i < msgs; i++ {
		<-inboxB
	}
	elapsed := time.Since(start)
	// The sender and receiver charges pipeline, so the batch takes at
	// least ~100ms (one core-second of work at each side, overlapped).
	if elapsed < 90*time.Millisecond {
		t.Fatalf("100 msgs delivered in %v; processing model not enforced", elapsed)
	}
}

func TestCrossClusterSlowerThanIntra(t *testing.T) {
	cfg := Config{
		IntraClusterLatency: 100 * time.Microsecond,
		CrossClusterLatency: 5 * time.Millisecond,
	}
	n := New(cfg, func(id types.NodeID) (types.ClusterID, bool) {
		return types.ClusterID(uint32(id) % 2), true
	})
	defer n.Close()
	a, b, c := types.NodeID(0), types.NodeID(1), types.NodeID(2)
	n.Register(a)
	inboxB := n.Register(b) // other cluster
	inboxC := n.Register(c) // same cluster as a

	start := time.Now()
	n.Send(c, &types.Envelope{From: a, Type: types.MsgRequest})
	<-inboxC
	intra := time.Since(start)

	start = time.Now()
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	<-inboxB
	cross := time.Since(start)

	if cross < 2*intra {
		t.Fatalf("cross-cluster (%v) not noticeably slower than intra (%v)", cross, intra)
	}
}

func TestCloseDropsTraffic(t *testing.T) {
	n, a, b, inboxB := twoNodes(Config{})
	n.Close()
	n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	select {
	case <-inboxB:
		t.Fatal("closed network delivered a message")
	case <-time.After(20 * time.Millisecond):
	}
}

// TestOverflowDrainsInOrder: messages beyond the inbox capacity spill into
// the bounded per-node overflow queue and are delivered in arrival order
// once the receiver starts consuming — saturation must not reorder or
// silently lose traffic the network decided to deliver. A client's small
// inbox spills under the same replica-sized bound, so it loses nothing.
func TestOverflowDrainsInOrder(t *testing.T) {
	for _, tc := range []struct {
		name      string
		inboxSize int
		to        types.NodeID
	}{
		{"replica", 8, 1},
		{"client", 16384, types.ClientIDBase + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, a, _, _ := twoNodes(Config{InboxSize: tc.inboxSize})
			defer n.Close()
			inbox := n.Register(tc.to)
			total := 3 * InboxCap(tc.to, tc.inboxSize) // well past the channel capacity
			for i := 0; i < total; i++ {
				n.Send(tc.to, &types.Envelope{From: a, Type: types.MsgRequest,
					Payload: binary.LittleEndian.AppendUint16(nil, uint16(i))})
			}
			deadline := time.After(5 * time.Second)
			for i := 0; i < total; i++ {
				select {
				case env := <-inbox:
					if got := int(binary.LittleEndian.Uint16(env.Payload)); got != i {
						t.Fatalf("message %d delivered at position %d", got, i)
					}
				case <-deadline:
					t.Fatalf("only %d of %d messages delivered", i, total)
				}
			}
			if got := n.Stats().Delivered.Load(); got != int64(total) {
				t.Fatalf("delivered %d, want %d", got, total)
			}
		})
	}
}

// TestOverflowBounded: a receiver that never drains drops traffic only past
// inbox + overflowFactor×inbox buffered messages, instead of spawning one
// goroutine per overflowing message.
func TestOverflowBounded(t *testing.T) {
	const inbox = 4
	n, a, b, inboxB := twoNodes(Config{InboxSize: inbox})
	defer n.Close()
	_ = inboxB // registered but never consumed

	const total = 10 * inbox
	for i := 0; i < total; i++ {
		n.Send(b, &types.Envelope{From: a, Type: types.MsgRequest})
	}
	// Allow the dispatcher and drainer to settle.
	time.Sleep(50 * time.Millisecond)
	// Buffered at most: inbox (channel) + 1 (drainer in flight) +
	// overflowFactor×inbox (queue); the rest must be counted dropped.
	maxBuffered := int64(inbox + 1 + overflowFactor*inbox)
	dropped := n.Stats().Dropped.Load()
	if dropped < total-maxBuffered {
		t.Fatalf("dropped %d, want ≥ %d (overflow must be bounded)", dropped, total-maxBuffered)
	}
	if delivered := n.Stats().Delivered.Load(); delivered > int64(inbox) {
		t.Fatalf("delivered %d into a never-consumed inbox of %d", delivered, inbox)
	}
}
