package transport

import "sharper/internal/types"

// Fabric is the message substrate every SharPer runtime (core, the
// baselines, clients) speaks to. Two implementations exist:
//
//   - *Network (this package): the in-process simulated fabric with
//     modelled latency, fault injection, and per-message processing cost —
//     the default for tests and benchmarks;
//   - *tcpnet.Net: real TCP sockets with length-prefixed, HMAC-authenticated
//     frames, used to run a deployment as separate OS processes.
//
// The consensus engines never see this interface; they emit outbound
// messages as data (consensus.Outbound) and the node runtime pushes them
// into whichever fabric it was configured with.
type Fabric interface {
	// Register creates (or returns) the local inbox for id. Each node and
	// client calls this once before participating.
	Register(id types.NodeID) <-chan *types.Envelope
	// Send queues env for delivery to `to`. Send never blocks the caller;
	// fabrics are lossy under pressure (consensus tolerates drops).
	Send(to types.NodeID, env *types.Envelope)
	// Multicast sends env to every destination in to.
	Multicast(to []types.NodeID, env *types.Envelope)
	// Stats returns the fabric's live message counters.
	Stats() *Stats
	// Close tears the fabric down; subsequent sends are dropped.
	Close()
}

// FaultInjector is the optional fault-modelling surface of a fabric. The
// simulated Network implements it; the TCP backend does not (to crash a TCP
// node you close its fabric or kill its process, like on a real cluster).
type FaultInjector interface {
	// Crash marks id as stopped: it receives no further messages until
	// Restart.
	Crash(id types.NodeID)
	// Restart clears the crashed mark for id.
	Restart(id types.NodeID)
	// Partition blocks delivery in both directions between every pair drawn
	// from a and b.
	Partition(a, b []types.NodeID)
	// Heal removes the partition rules between every pair drawn from a and
	// b, leaving other partitions intact.
	Heal(a, b []types.NodeID)
	// HealPartition removes all partition rules.
	HealPartition()
}

// clientInbox is the inbox capacity of a client endpoint (id.IsClient()).
// A client has one Submit in flight and hears at most one reply per member
// of each involved cluster per attempt: in the paper's deployment of four
// clusters of 3f+1 = 4 replicas that is 16 replies, so 256 slots hold every
// reply of 16 attempts, twice a GatewayClient's MaxAttempts. A replica
// inbox needs InboxSize because it absorbs its whole cluster's protocol
// traffic; at that size a client's inbox would hold 128 KB of slots for
// replies it never gets.
const clientInbox = 256

// InboxCap returns the inbox capacity for endpoint id given the configured
// replica capacity: replicas get all of it, clients at most clientInbox.
func InboxCap(id types.NodeID, replicaCap int) int {
	if id.IsClient() {
		return min(clientInbox, replicaCap)
	}
	return replicaCap
}

var (
	_ Fabric        = (*Network)(nil)
	_ FaultInjector = (*Network)(nil)
)
