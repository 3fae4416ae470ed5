// Package transport simulates the network substrate of §2.1: point-to-point,
// pairwise-authenticated, bi-directional channels between every pair of
// nodes. The simulation models per-link latency (intra-cluster vs
// cross-cluster vs client links), jitter, message drops, duplication,
// network partitions, and node crashes, so consensus protocols built on top
// exercise the same code paths they would on a real cluster.
//
// Delivery is asynchronous: messages may be delayed, dropped, duplicated, or
// reordered (the safety assumption of §3), but a message that is delivered
// is delivered intact and with an authentic sender identity.
package transport

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/types"
)

// Config describes the simulated network's behaviour.
type Config struct {
	// IntraClusterLatency is the one-way delay between two nodes in the
	// same cluster (nodes are co-located, §2.2).
	IntraClusterLatency time.Duration
	// CrossClusterLatency is the one-way delay between nodes of different
	// clusters.
	CrossClusterLatency time.Duration
	// ClientLatency is the one-way delay between a client and any replica.
	ClientLatency time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac·latency) per message.
	JitterFrac float64
	// DropProb drops each message independently with this probability.
	DropProb float64
	// DupProb duplicates each delivered message with this probability.
	DupProb float64
	// Seed makes fault injection reproducible.
	Seed int64
	// InboxSize is the buffered capacity of each replica's inbox; a client
	// endpoint's inbox holds at most clientInbox (see InboxCap). Messages
	// beyond an inbox's capacity spill into a bounded per-node overflow
	// queue drained in arrival order, so saturation never silently loses
	// or reorders the traffic the network decided to deliver; only a node
	// whose overflow also fills (overflowFactor×InboxSize, for clients
	// too) starts dropping.
	InboxSize int
	// ProcessingTime models per-message service cost at each replica (CPU
	// serialization, marshalling, syscalls). Every message a replica sends
	// or receives occupies it for this long, so a node caps out at roughly
	// 1/ProcessingTime messages per second — the resource that makes a
	// single ordering group saturate and lets sharding scale throughput
	// with cluster count, as on the paper's real testbed. Zero disables the
	// model. Clients are not charged.
	ProcessingTime time.Duration
	// Shaping, when set, replaces the three scalar latencies above with a
	// per-link shape matrix (delay, bandwidth, loss per cluster pair — the
	// same structure the TCP fabric applies per peer link, so one topology
	// file drives both fabrics). JitterFrac still applies on top of shaped
	// delays; DropProb composes with per-link Loss.
	Shaping *Shaping
}

// DefaultConfig returns a LAN-like configuration suitable for benchmarks:
// sub-millisecond intra-cluster links and ~1ms cross-cluster links.
func DefaultConfig() Config {
	return Config{
		IntraClusterLatency: 100 * time.Microsecond,
		CrossClusterLatency: 200 * time.Microsecond,
		ClientLatency:       200 * time.Microsecond,
		JitterFrac:          0.2,
		InboxSize:           16384,
		ProcessingTime:      15 * time.Microsecond,
	}
}

// Locator maps a node to the cluster it belongs to, for latency selection.
// Clients (id.IsClient()) are not expected to be mapped.
type Locator func(types.NodeID) (types.ClusterID, bool)

// Stats aggregates message-level counters, used by tests to assert on the
// number of communication phases and by benchmarks to report network load.
type Stats struct {
	Sent      atomic.Int64
	Delivered atomic.Int64
	Dropped   atomic.Int64
	Bytes     atomic.Int64
}

// LinkStats aggregates per-destination counters: messages and bytes sent
// toward one node, drops on that path, and the cumulative simulated delay
// (processing + shaped serialization + propagation) the fabric scheduled.
// Counters are atomics; a snapshot read while traffic flows is approximate
// but race-free.
type LinkStats struct {
	Sent        atomic.Int64
	Delivered   atomic.Int64
	Dropped     atomic.Int64
	Bytes       atomic.Int64
	DelayMicros atomic.Int64 // total scheduled one-way delay, µs
}

// Network is the in-process message fabric. It is safe for concurrent use.
type Network struct {
	cfg    Config
	locate Locator

	mu        sync.RWMutex
	inboxes   map[types.NodeID]chan *types.Envelope
	crashed   map[types.NodeID]bool
	partition map[[2]types.NodeID]bool // blocked ordered pairs
	closed    bool

	rngMu sync.Mutex
	rng   *rand.Rand

	// busyUntil models each replica's single message-processing core: the
	// virtual time until which the node is occupied. linkBusy models each
	// directed link's serialization under a shaped bandwidth the same way.
	// Both guarded by busyMu.
	busyMu    sync.Mutex
	busyUntil map[types.NodeID]time.Time
	linkBusy  map[[2]types.NodeID]time.Time

	// Delayed-delivery machinery: a min-heap drained by the dispatcher
	// goroutine on a fine quantum (see Network.dispatcher).
	qMu     sync.Mutex
	queue   deliveryHeap
	qWake   chan struct{}
	qDone   chan struct{}
	qClosed bool

	// Per-node overflow queues for messages that found the inbox full; one
	// drainer goroutine per backed-up node feeds them into the inbox in
	// order (see Network.deliver).
	ovMu     sync.Mutex
	overflow map[types.NodeID][]*types.Envelope
	ovBusy   map[types.NodeID]bool

	stats Stats

	// Per-destination link counters, created lazily on first send.
	linkMu sync.RWMutex
	links  map[types.NodeID]*LinkStats
}

// overflowFactor sizes the per-node overflow queue relative to InboxSize;
// beyond InboxSize×overflowFactor backed-up messages the node is considered
// unrecoverable at current load and further traffic to it is dropped
// (counted in Stats.Dropped) rather than buffered without bound.
const overflowFactor = 4

// New creates a network with the given behaviour and topology.
func New(cfg Config, locate Locator) *Network {
	if cfg.InboxSize <= 0 {
		cfg.InboxSize = 16384
	}
	n := &Network{
		cfg:       cfg,
		locate:    locate,
		inboxes:   make(map[types.NodeID]chan *types.Envelope),
		crashed:   make(map[types.NodeID]bool),
		partition: make(map[[2]types.NodeID]bool),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		busyUntil: make(map[types.NodeID]time.Time),
		linkBusy:  make(map[[2]types.NodeID]time.Time),
		qWake:     make(chan struct{}, 1),
		qDone:     make(chan struct{}),
		overflow:  make(map[types.NodeID][]*types.Envelope),
		ovBusy:    make(map[types.NodeID]bool),
		links:     make(map[types.NodeID]*LinkStats),
	}
	go n.dispatcher()
	return n
}

// occupy charges the node's processing core for one message starting no
// earlier than at, returning when processing completes. Clients have no
// modelled core.
func (n *Network) occupy(id types.NodeID, at time.Time) time.Time {
	if n.cfg.ProcessingTime <= 0 || id.IsClient() {
		return at
	}
	n.busyMu.Lock()
	start := at
	if b := n.busyUntil[id]; b.After(start) {
		start = b
	}
	done := start.Add(n.cfg.ProcessingTime)
	n.busyUntil[id] = done
	n.busyMu.Unlock()
	return done
}

// Stats returns the live counters.
func (n *Network) Stats() *Stats { return &n.stats }

// Link returns the live per-destination counters for traffic toward id,
// creating them on first use.
func (n *Network) Link(id types.NodeID) *LinkStats {
	n.linkMu.RLock()
	ls, ok := n.links[id]
	n.linkMu.RUnlock()
	if ok {
		return ls
	}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	if ls, ok = n.links[id]; ok {
		return ls
	}
	ls = &LinkStats{}
	n.links[id] = ls
	return ls
}

// QueueDepth reports the number of messages buffered toward id: its inbox
// backlog plus any overflow spill. Zero for unregistered nodes.
func (n *Network) QueueDepth(id types.NodeID) int {
	n.mu.RLock()
	ch := n.inboxes[id]
	n.mu.RUnlock()
	depth := 0
	if ch != nil {
		depth = len(ch)
	}
	n.ovMu.Lock()
	depth += len(n.overflow[id])
	n.ovMu.Unlock()
	return depth
}

// Register creates (or returns) the inbox for id. Each node and client calls
// this once before participating.
func (n *Network) Register(id types.NodeID) <-chan *types.Envelope {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ch, ok := n.inboxes[id]; ok {
		return ch
	}
	ch := make(chan *types.Envelope, InboxCap(id, n.cfg.InboxSize))
	n.inboxes[id] = ch
	return ch
}

// Crash marks id as stopped: it receives no further messages until Restart.
// This models the crash failure of §2.1.
func (n *Network) Crash(id types.NodeID) {
	n.mu.Lock()
	n.crashed[id] = true
	n.mu.Unlock()
}

// Restart clears the crashed mark for id.
func (n *Network) Restart(id types.NodeID) {
	n.mu.Lock()
	delete(n.crashed, id)
	n.mu.Unlock()
}

// Partition blocks delivery in both directions between every pair drawn from
// a and b. Heal pairwise with Heal, or wholesale with HealPartition.
func (n *Network) Partition(a, b []types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			n.partition[[2]types.NodeID{x, y}] = true
			n.partition[[2]types.NodeID{y, x}] = true
		}
	}
}

// Heal removes the partition rules between every pair drawn from a and b,
// leaving any other partitions in place — so overlapping cuts installed by
// separate Partition calls can be lifted independently.
func (n *Network) Heal(a, b []types.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, x := range a {
		for _, y := range b {
			delete(n.partition, [2]types.NodeID{x, y})
			delete(n.partition, [2]types.NodeID{y, x})
		}
	}
}

// HealPartition removes all partition rules.
func (n *Network) HealPartition() {
	n.mu.Lock()
	n.partition = make(map[[2]types.NodeID]bool)
	n.mu.Unlock()
}

// Close tears the network down; subsequent sends are dropped.
func (n *Network) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.qMu.Lock()
	if !n.qClosed {
		n.qClosed = true
		close(n.qDone)
	}
	n.qMu.Unlock()
}

// shapeFor resolves the configured LinkShape of the link from → to (zero
// when no Shaping matrix is configured).
func (n *Network) shapeFor(from, to types.NodeID) LinkShape {
	s := n.cfg.Shaping
	if s == nil {
		return LinkShape{}
	}
	if from.IsClient() || to.IsClient() {
		return s.Client
	}
	cf, okF := n.locate(from)
	ct, okT := n.locate(to)
	if !okF || !okT {
		return s.Default
	}
	return s.For(cf, ct)
}

// latency picks the one-way delay for the link from → to.
func (n *Network) latency(from, to types.NodeID) time.Duration {
	var base time.Duration
	if n.cfg.Shaping != nil {
		base = n.shapeFor(from, to).Delay
	} else {
		switch {
		case from.IsClient() || to.IsClient():
			base = n.cfg.ClientLatency
		default:
			cf, okF := n.locate(from)
			ct, okT := n.locate(to)
			if okF && okT && cf == ct {
				base = n.cfg.IntraClusterLatency
			} else {
				base = n.cfg.CrossClusterLatency
			}
		}
	}
	if n.cfg.JitterFrac > 0 && base > 0 {
		n.rngMu.Lock()
		j := n.rng.Float64() * n.cfg.JitterFrac
		n.rngMu.Unlock()
		base += time.Duration(float64(base) * j)
	}
	return base
}

// linkOccupy serializes one frame of wireBytes onto the directed link
// from → to starting no earlier than at, returning when the last bit leaves
// the sender — the shaped-bandwidth queueing model.
func (n *Network) linkOccupy(from, to types.NodeID, at time.Time, tx time.Duration) time.Time {
	if tx <= 0 {
		return at
	}
	key := [2]types.NodeID{from, to}
	n.busyMu.Lock()
	start := at
	if b := n.linkBusy[key]; b.After(start) {
		start = b
	}
	done := start.Add(tx)
	n.linkBusy[key] = done
	n.busyMu.Unlock()
	return done
}

// wireBytes approximates the frame size of env on a real link: payload,
// signature, and the fixed header/tag overhead of the TCP wire format.
func wireBytes(env *types.Envelope) int {
	return len(env.Payload) + len(env.Sig) + 48
}

// roll returns true with probability p.
func (n *Network) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	n.rngMu.Lock()
	v := n.rng.Float64()
	n.rngMu.Unlock()
	return v < p
}

// Send queues env for delivery to `to`. Drops, duplication, and latency are
// applied per the config; partitioned or crashed destinations receive
// nothing. Send never blocks the caller.
func (n *Network) Send(to types.NodeID, env *types.Envelope) {
	n.stats.Sent.Add(1)
	n.stats.Bytes.Add(int64(len(env.Payload)))
	link := n.Link(to)
	link.Sent.Add(1)
	link.Bytes.Add(int64(len(env.Payload)))

	n.mu.RLock()
	closed := n.closed
	blocked := n.partition[[2]types.NodeID{env.From, to}]
	n.mu.RUnlock()
	shape := n.shapeFor(env.From, to)
	if closed || blocked || n.roll(n.cfg.DropProb) || n.roll(shape.Loss) {
		n.stats.Dropped.Add(1)
		link.Dropped.Add(1)
		return
	}

	// Total delay = sender serialization + shaped link transmission + link
	// latency + receiver serialization: the node's processing core, then the
	// link's bandwidth, then propagation.
	now := time.Now()
	sent := n.occupy(env.From, now)
	sent = n.linkOccupy(env.From, to, sent, shape.TxTime(wireBytes(env)))
	arrival := sent.Add(n.latency(env.From, to))
	done := n.occupy(to, arrival)
	link.Delivered.Add(1)
	link.DelayMicros.Add(done.Sub(now).Microseconds())
	n.deliverAfter(to, env, done.Sub(now))
	if n.roll(n.cfg.DupProb) {
		n.deliverAfter(to, env, done.Sub(now)+n.latency(env.From, to))
	}
}

// queued is one message awaiting its delivery time.
type queued struct {
	due time.Time
	to  types.NodeID
	env *types.Envelope
}

// deliveryHeap orders queued messages by due time.
type deliveryHeap []queued

func (h deliveryHeap) Len() int            { return len(h) }
func (h deliveryHeap) Less(i, j int) bool  { return h[i].due.Before(h[j].due) }
func (h deliveryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *deliveryHeap) Push(x interface{}) { *h = append(*h, x.(queued)) }
func (h *deliveryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

func (n *Network) deliverAfter(to types.NodeID, env *types.Envelope, d time.Duration) {
	if d <= 0 {
		n.deliver(to, env)
		return
	}
	n.qMu.Lock()
	heap.Push(&n.queue, queued{due: time.Now().Add(d), to: to, env: env})
	n.qMu.Unlock()
	select {
	case n.qWake <- struct{}{}:
	default:
	}
}

// dispatcher delivers queued messages with sub-millisecond precision.
// Go runtime timers (time.AfterFunc, time.Sleep) round sub-millisecond
// waits up to ~1ms, which would dwarf the configured link latencies, so the
// dispatcher sleeps coarsely only while the next deadline is far away and
// yield-spins across the final stretch.
func (n *Network) dispatcher() {
	for {
		n.qMu.Lock()
		for n.queue.Len() == 0 && !n.qClosed {
			n.qMu.Unlock()
			select {
			case <-n.qWake:
			case <-n.qDone:
				return
			}
			n.qMu.Lock()
		}
		if n.qClosed {
			n.qMu.Unlock()
			return
		}
		now := time.Now()
		var due []queued
		for n.queue.Len() > 0 && !n.queue[0].due.After(now) {
			due = append(due, heap.Pop(&n.queue).(queued))
		}
		var wait time.Duration
		if n.queue.Len() > 0 {
			wait = n.queue[0].due.Sub(now)
		}
		n.qMu.Unlock()
		for _, q := range due {
			n.deliver(q.to, q.env)
		}
		if wait > 2*time.Millisecond {
			time.Sleep(wait - time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

func (n *Network) deliver(to types.NodeID, env *types.Envelope) {
	n.mu.RLock()
	ch, ok := n.inboxes[to]
	dead := n.crashed[to] || n.closed
	n.mu.RUnlock()
	if !ok || dead {
		n.stats.Dropped.Add(1)
		return
	}
	n.ovMu.Lock()
	if n.ovBusy[to] || len(n.overflow[to]) > 0 {
		// The node is backed up (queued messages, or the drainer still has
		// one in flight): append behind them so delivery order is
		// preserved while the drainer catches up. Checking ovBusy matters —
		// the drainer pops a message before sending it, so an empty queue
		// alone does not mean the backlog has fully landed.
		n.spillLocked(to, ch, env)
		n.ovMu.Unlock()
		return
	}
	n.ovMu.Unlock()
	select {
	case ch <- env:
		n.stats.Delivered.Add(1)
	default:
		// Inbox full: spill into the bounded per-node overflow queue; a
		// single drainer goroutine per node feeds it into the inbox in
		// order, so the timer callback never blocks and saturation cannot
		// spawn one goroutine per overflowing message.
		n.ovMu.Lock()
		n.spillLocked(to, ch, env)
		n.ovMu.Unlock()
	}
}

// spillLocked enqueues env on to's overflow queue (dropping when the bound
// is hit) and ensures a drainer goroutine is running. Caller holds ovMu.
func (n *Network) spillLocked(to types.NodeID, ch chan *types.Envelope, env *types.Envelope) {
	if len(n.overflow[to]) >= n.cfg.InboxSize*overflowFactor {
		n.stats.Dropped.Add(1)
		return
	}
	n.overflow[to] = append(n.overflow[to], env)
	if !n.ovBusy[to] {
		n.ovBusy[to] = true
		go n.drainOverflow(to, ch)
	}
}

// drainOverflow pushes to's backed-up messages into its inbox in order,
// exiting when the queue empties or the network shuts down.
func (n *Network) drainOverflow(to types.NodeID, ch chan *types.Envelope) {
	for {
		n.ovMu.Lock()
		q := n.overflow[to]
		if len(q) == 0 {
			n.ovBusy[to] = false
			delete(n.overflow, to)
			n.ovMu.Unlock()
			return
		}
		env := q[0]
		n.overflow[to] = q[1:]
		n.ovMu.Unlock()
		select {
		case ch <- env:
			n.stats.Delivered.Add(1)
		case <-n.qDone:
			return
		}
	}
}

// Multicast sends env to every destination in to (excluding none; callers
// decide whether to include themselves).
func (n *Network) Multicast(to []types.NodeID, env *types.Envelope) {
	for _, id := range to {
		n.Send(id, env)
	}
}
