// Package paxos implements the intra-shard crash-fault-tolerant consensus
// of §3.1 (Fig. 3a): a primary-led, three-step protocol over 2f+1 nodes.
// The primary assigns a sequence number and the hash of the previous block,
// multicasts an accept message, collects f+1 matching accepted messages
// (counting itself), and multicasts commit. Liveness under primary failure
// comes from a timeout-driven view change (§3.2 "Safety and Liveness").
//
// The engine is a pure state machine: callers feed it envelopes and timer
// ticks; it returns outbound messages and ordered decisions. It never
// touches the network, the ledger, or the clock, which keeps every protocol
// step deterministic and unit-testable. The slot, view and recovery
// machinery it shares with PBFT lives in consensus.Log; this package keeps
// the Paxos messages and quorums.
package paxos

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// Engine is one node's Paxos state for one cluster.
type Engine struct {
	*consensus.Log[votes, *votes]
}

// votes is the per-slot Paxos vote record.
type votes struct {
	accepted map[types.NodeID]bool
	sentCmt  bool
}

func (v *votes) Reset()                                      { *v = votes{accepted: make(map[types.NodeID]bool)} }
func (v *votes) Vote(n types.NodeID, _ types.Hash, _ []byte) { v.accepted[n] = true }

// Proof is nil: crash-only acceptors report every acceptance uncertified.
func (v *votes) Proof(types.Hash) []types.VoteProof { return nil }

// Bound is false: a commit that raced ahead of its accept marks the slot
// committed directly.
func (v *votes) Bound(int) bool { return false }

// Config parametrizes an Engine.
type Config struct {
	Topology *consensus.Topology
	Cluster  types.ClusterID
	Self     types.NodeID
	// Timeout before a backup suspects the primary for an in-flight
	// proposal and votes to change view.
	Timeout time.Duration
	// Persist, when non-nil, is the stable-storage hook for acceptor state
	// (persist-before-ack; see consensus.Persister).
	Persist consensus.Persister
	// Reserved, when non-nil, reports whether the node's cross-shard engine
	// holds this node's vote for the given chain slot (§3.2: a node must
	// never vote for two values at one slot). The engine refuses to accept
	// or propose an intra-shard binding at a reserved slot — it parks the
	// proposal instead and retries when the reservation clears. This check
	// sits at the vote boundary because proposals reach it through internal
	// paths (parked-gap retries, view-change re-proposals) that never pass
	// the node's dispatch-level deferral.
	Reserved func(seq uint64) bool
	// Obs, when non-nil, receives engine health metrics (view changes,
	// straggler drops, live instance count).
	Obs *obs.EngineMetrics
	// OnPrepared, when non-nil, fires when a proposal this primary launched
	// reaches its commit quorum (per-transaction lifecycle tracing).
	OnPrepared func(seq uint64)
}

// New creates an engine starting at view 0 with the genesis head.
func New(cfg Config, genesis types.Hash) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	e := &Engine{}
	e.Log = consensus.NewLog[votes](consensus.LogConfig{
		Topology: cfg.Topology, Cluster: cfg.Cluster, Self: cfg.Self, Timeout: cfg.Timeout,
		Persist: cfg.Persist, Reserved: cfg.Reserved, Obs: cfg.Obs, OnPrepared: cfg.OnPrepared,
		Replay: e.onAccept, Repropose: e.Propose,
	}, genesis)
	return e
}

// Propose starts consensus on a batch of transactions. Only the current
// primary may call it. It returns the accept multicast and the assigned
// sequence; the whole batch occupies one consensus instance and one block.
func (e *Engine) Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64) {
	seq, s := e.Open(txs, now)
	if s == nil {
		return nil, 0
	}
	s.Votes.accepted[e.Self] = true // the primary counts itself
	msg := &types.ConsensusMsg{
		View:       s.View,
		Seq:        seq,
		Digest:     s.Digest,
		Cluster:    e.Cluster,
		PrevHashes: s.Block.Parents,
		Txs:        txs,
	}
	out := consensus.Outbound{
		To:  e.Peers(),
		Env: &types.Envelope{Type: types.MsgPaxosAccept, From: e.Self, Payload: msg.Encode(nil)},
	}
	return []consensus.Outbound{out}, seq
}

// Step consumes one protocol message and returns outbound messages plus any
// decisions that became deliverable (in sequence order).
func (e *Engine) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	outs, decs := e.step(env, now)
	e.ReportSlots()
	return outs, decs
}

func (e *Engine) step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	switch env.Type {
	case types.MsgPaxosAccept:
		return e.onAccept(env, now)
	case types.MsgPaxosAccepted:
		return e.onAccepted(env)
	case types.MsgPaxosCommit:
		return e.onCommit(env)
	case types.MsgViewChange:
		return e.onViewChange(env, now)
	case types.MsgNewView:
		return e.OnNewView(env, now)
	default:
		return nil, nil
	}
}

func (e *Engine) onAccept(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.Txs) == 0 || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	// Only the primary of the message's view may propose, and only at or
	// above the view this node has promised.
	if env.From != e.Topo.Primary(e.Cluster, m.View) || m.View < e.View() || m.View < e.Promised() {
		return nil, nil
	}
	if m.View > e.View() {
		// We lag behind a view change; adopt the higher view.
		e.InstallView(m.View, now)
	}
	s := e.Bind(env, m, &types.Block{Txs: m.Txs, Parents: m.PrevHashes}, now)
	if s == nil {
		return nil, nil
	}
	// Persist the acceptance before the ack leaves: the primary will count
	// it toward a commit quorum, so this node must still report it after a
	// restart (view-change value recovery). Unpersistable ⇒ no ack.
	if !e.PersistAccept(m.Seq, s) {
		return nil, nil
	}
	reply := &types.ConsensusMsg{View: m.View, Seq: m.Seq, Digest: m.Digest, Cluster: e.Cluster}
	out := []consensus.Outbound{{
		To:  []types.NodeID{env.From},
		Env: &types.Envelope{Type: types.MsgPaxosAccepted, From: e.Self, Payload: reply.Encode(nil)},
	}}
	// A commit may have arrived before this proposal (network reordering):
	// now that the transaction body is known, the decision can deliver.
	decs := e.Advance()
	o2, d2 := e.RetryParked(now)
	return append(out, o2...), append(decs, d2...)
}

func (e *Engine) onAccepted(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	s := e.Slot(m.Seq)
	if s == nil || s.View != m.View || s.Digest != m.Digest || s.Votes.sentCmt {
		return nil, nil
	}
	if !e.IsPrimary() || e.ViewChanging() || m.View < e.Promised() {
		// A primary that joined a view change has promised not to commit in
		// the old view: late accepteds must not complete its quorums.
		return nil, nil
	}
	s.Votes.accepted[env.From] = true
	if len(s.Votes.accepted) < e.Topo.F(e.Cluster)+1 {
		return nil, nil
	}
	// Quorum: multicast commit and decide locally.
	s.Votes.sentCmt = true
	s.Committed = true
	e.Ring.Recordf("commit-quorum", m.Seq, s.Digest, "v=%d acc=%d", s.View, len(s.Votes.accepted))
	if e.OnPrepared != nil && s.Own {
		e.OnPrepared(m.Seq)
	}
	cm := &types.ConsensusMsg{View: s.View, Seq: m.Seq, Digest: s.Digest, Cluster: e.Cluster}
	out := []consensus.Outbound{{
		To:  e.Peers(),
		Env: &types.Envelope{Type: types.MsgPaxosCommit, From: e.Self, Payload: cm.Encode(nil)},
	}}
	return out, e.Advance()
}

func (e *Engine) onCommit(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil, nil
	}
	if env.From != e.Topo.Primary(e.Cluster, m.View) {
		return nil, nil
	}
	// A commit that raced ahead of its accept is remembered until the
	// accept brings the body.
	s := e.VoteSlot(m.Seq)
	if s == nil {
		return nil, nil
	}
	if s.Digest.IsZero() {
		s.Digest = m.Digest
	}
	if s.Digest != m.Digest {
		// A stale commit from a deposed view must not commit the slot's new
		// binding (nor may a buffered commit accept a different body later).
		return nil, nil
	}
	s.Committed = true
	e.Ring.Recordf("commit-msg", m.Seq, m.Digest, "v=%d from=%s", m.View, env.From)
	return nil, e.Advance()
}

// onViewChange applies the crash-model view-change policy: join as soon as
// anyone credible started the change (crash-only nodes don't need f+1
// proof); the would-be primary leads with f+1 votes (itself included); and
// the catch-up barrier is the highest commit any voter reports.
func (e *Engine) onViewChange(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	out, votes := e.OnViewChange(env, now, 1, e.Topo.F(e.Cluster)+1)
	if votes == nil {
		return out, nil
	}
	return append(out, e.LeadView(votes, 1, now)...), nil
}
