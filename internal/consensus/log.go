package consensus

import (
	"fmt"
	"os"
	"sort"
	"time"

	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// Slot is one position of a cluster's replicated log: the value bound
// there, the view that bound it, and the engine's vote record T for it.
type Slot[T any] struct {
	Digest types.Hash
	Parent types.Hash
	Txs    []*types.Transaction
	// Block is the batch as a chain block, built once when the body is
	// known; its memoized Hash makes every later chain-walk relink cheap.
	Block     *types.Block
	View      uint64
	Own       bool // proposed by this node (as primary)
	Committed bool
	Deadline  time.Time
	Votes     T
	// durable/durableView/durableDigest track what PersistAccept last
	// recorded for this slot, so duplicate deliveries do not rewrite the log.
	durable       bool
	durableView   uint64
	durableDigest types.Hash
}

// Votes is an engine's per-slot vote record, used through a pointer to its
// value in the Slot.
type Votes[T any] interface {
	*T
	// Reset empties the record for a fresh binding: a new slot, or a value
	// from a newer view whose votes must not inherit the old binding's.
	Reset()
	// Vote records node's first-phase vote (accept or prepare) for digest,
	// with its signature where the engine signs votes.
	Vote(node types.NodeID, digest types.Hash, sig []byte)
	// Proof returns the signed votes in the record that certify digest; an
	// engine without certificates returns nil.
	Proof(digest types.Hash) []types.VoteProof
	// Bound reports whether the record alone shows the slot decided: quorum
	// matching commit votes that arrived before the proposal body.
	Bound(quorum int) bool
}

// LogConfig wires a Log to the engine that owns it. The first eight fields
// come from the engine's own configuration; the rest are the engine's
// fixed policy.
type LogConfig struct {
	Topology   *Topology
	Cluster    types.ClusterID
	Self       types.NodeID
	Timeout    time.Duration
	Persist    Persister
	Reserved   func(seq uint64) bool
	Obs        *obs.EngineMetrics
	OnPrepared func(seq uint64)
	// Signer signs the Log's own messages (view change, new view) and the
	// self-vote it restores; nil leaves them unsigned.
	Signer crypto.Signer
	// CertQuorum is the number of matching signed votes that certify a
	// slot. A view-change vote reports only certified slots; 0 reports every
	// acceptance (crash-only nodes never lie).
	CertQuorum int
	// FirstValueWins refuses a second value at one (view, slot): under the
	// Byzantine model it comes from an equivocating primary. A crash-model
	// primary does not equivocate, so there a newer proposal overwrites —
	// the slot may hold an acceptance the node discarded before a restart
	// and recovered from its log.
	FirstValueWins bool
	// Replay re-delivers a parked proposal to the engine's proposal handler
	// and Repropose binds a recovered value as the new primary: the only
	// two places the Log re-enters the engine.
	Replay    func(env *types.Envelope, now time.Time) ([]Outbound, []Decision)
	Repropose func(txs []*types.Transaction, now time.Time) ([]Outbound, uint64)
}

// Log is the replicated log both intra-shard engines run (§3.1): one hash
// chain per cluster, ordered slot by slot by a primary-led protocol, with a
// timeout-driven view change and value recovery. The Log owns the rules
// every engine must obey the same way: one vote per slot (a slot the
// cross-shard engine holds takes no intra vote), persist-before-ack,
// proposals park unless they extend the chain, and acceptances survive
// SyncChainHead and view install. The engine keeps its messages, quorums,
// signatures and certificates.
type Log[T any, P Votes[T]] struct {
	Topo    *Topology
	Cluster types.ClusterID
	Self    types.NodeID

	// Ring is a bounded ring of structured protocol events for post-mortem
	// debugging (see DebugTrace), recorded only when SHARPER_TRACE is set —
	// the formatting is not free on the hot path. The wall-clock stamp on
	// each event lets a divergence hunt merge this ring with the cross-shard
	// engine's (and other processes') into one timeline.
	Ring *obs.EventRing
	// Metrics tracks engine health (view changes, straggler drops, slot
	// count); nil-safe handles.
	Metrics *obs.EngineMetrics
	// OnPrepared, when non-nil, fires when a proposal this primary launched
	// reaches its commit quorum (Paxos) or prepared certificate (PBFT).
	OnPrepared func(seq uint64)

	view uint64
	// promised is the highest view this node has voted a view change for:
	// like a Paxos phase-1 promise, once cast the node rejects proposals
	// from lower views — otherwise an acceptance granted after the
	// view-change vote would be invisible to the new view's value recovery,
	// and the deposed primary could commit with it.
	promised     uint64
	viewChanging bool
	// vcDeadline bounds how long the node waits for the voted view to
	// install before escalating to the next one. Without it, a view whose
	// candidate primary is itself dead (view numbers rotate over all
	// members, crashed or not) wedges the cluster forever: every live node
	// sits in viewChanging, and Tick fires no further suspicion.
	vcDeadline time.Time

	// The proposal chain: the latest block proposed (primary) or accepted
	// (backup). It may run ahead of the committed head, which enables
	// pipelining — block hashes are computable at proposal time because
	// they cover only the transactions and parent links.
	proposedSeq  uint64
	proposedHead types.Hash
	// Committed progress, advanced by Advance as decisions drain.
	committedSeq  uint64
	committedHead types.Hash

	slots map[uint64]*Slot[T]
	// parked holds proposals that arrived out of order (their seq or parent
	// does not yet extend the chain) or at a reserved slot; they are retried
	// whenever the chain advances or a reservation clears.
	parked  map[uint64]*types.Envelope
	vcVotes map[uint64]map[types.NodeID]*types.ViewChange

	// New-primary recovery state: values reported prepared by the
	// view-change quorum, to re-propose in order, and the committed
	// sequence this node must reach (by chain sync) before proposing
	// anything — a voter reported commits we have not seen, so proposing
	// earlier could re-bind an already-committed slot.
	pending []types.PreparedInstance
	barrier uint64

	timeout time.Duration
	// persist, when set, records acceptances and view positions to stable
	// storage before the message they vouch for leaves the node, so a
	// restarted acceptor cannot renege on a promise or an acceptance.
	persist    Persister
	reserved   func(seq uint64) bool
	signer     crypto.Signer
	certQuorum int
	firstWins  bool
	replay     func(env *types.Envelope, now time.Time) ([]Outbound, []Decision)
	repropose  func(txs []*types.Transaction, now time.Time) ([]Outbound, uint64)
}

// NewLog creates a log at view 0 with the genesis head.
func NewLog[T any, P Votes[T]](cfg LogConfig, genesis types.Hash) *Log[T, P] {
	return &Log[T, P]{
		Topo:          cfg.Topology,
		Cluster:       cfg.Cluster,
		Self:          cfg.Self,
		Ring:          obs.NewEventRing(0, os.Getenv("SHARPER_TRACE") != ""),
		Metrics:       cfg.Obs,
		OnPrepared:    cfg.OnPrepared,
		proposedHead:  genesis,
		committedHead: genesis,
		slots:         make(map[uint64]*Slot[T]),
		parked:        make(map[uint64]*types.Envelope),
		vcVotes:       make(map[uint64]map[types.NodeID]*types.ViewChange),
		timeout:       cfg.Timeout,
		persist:       cfg.Persist,
		reserved:      cfg.Reserved,
		signer:        cfg.Signer,
		certQuorum:    cfg.CertQuorum,
		firstWins:     cfg.FirstValueWins,
		replay:        cfg.Replay,
		repropose:     cfg.Repropose,
	}
}

// Others returns members minus self, as a fresh slice.
func Others(members []types.NodeID, self types.NodeID) []types.NodeID {
	out := make([]types.NodeID, 0, len(members))
	for _, m := range members {
		if m != self {
			out = append(out, m)
		}
	}
	return out
}

// Peers returns the other members of this node's cluster.
func (l *Log[T, P]) Peers() []types.NodeID { return Others(l.Topo.Members(l.Cluster), l.Self) }

// View returns the current view.
func (l *Log[T, P]) View() uint64 { return l.view }

// Promised returns the highest view this node has voted a view change for.
func (l *Log[T, P]) Promised() uint64 { return l.promised }

// ViewChanging reports whether this node has voted a view change that has
// not installed yet.
func (l *Log[T, P]) ViewChanging() bool { return l.viewChanging }

// Primary returns the current primary of the cluster.
func (l *Log[T, P]) Primary() types.NodeID { return l.Topo.Primary(l.Cluster, l.view) }

// IsPrimary reports whether this node leads the current view.
func (l *Log[T, P]) IsPrimary() bool { return l.Primary() == l.Self }

// ProposedHead returns the hash of the last block this node has proposed
// (primary) or accepted (backup) — the h_i the cluster contributes to
// cross-shard proposals.
func (l *Log[T, P]) ProposedHead() (uint64, types.Hash) { return l.proposedSeq, l.proposedHead }

// DebugTrace returns the recent protocol events (oldest first), rendered in
// the historical SHARPER_TRACE line format.
func (l *Log[T, P]) DebugTrace() []string { return l.Ring.Lines() }

// DebugEvents returns the recent protocol events in structured form.
func (l *Log[T, P]) DebugEvents() []obs.Event { return l.Ring.Events() }

// DebugString renders the log's state for test diagnostics.
func (l *Log[T, P]) DebugString() string {
	s := fmt.Sprintf("view=%d proposed=%d/%s committed=%d/%s vc=%v parked=%d",
		l.view, l.proposedSeq, l.proposedHead, l.committedSeq, l.committedHead,
		l.viewChanging, len(l.parked))
	for seq, sl := range l.slots {
		s += fmt.Sprintf(" slot[%d]{d=%s p=%s txs=%d v=%d cmt=%v}",
			seq, sl.Digest, sl.Parent, len(sl.Txs), sl.View, sl.Committed)
	}
	return s
}

// ReportSlots publishes the live slot count to the engine metrics.
func (l *Log[T, P]) ReportSlots() { l.Metrics.InstGauge().Set(uint64(len(l.slots))) }

// Sign signs payload with the node's key; nil when the log has no signer.
func (l *Log[T, P]) Sign(payload []byte) []byte {
	if l.signer == nil {
		return nil
	}
	return l.signer.Sign(payload)
}

// slotReserved reports whether the cross-shard engine holds this node's vote
// for the chain slot.
func (l *Log[T, P]) slotReserved(seq uint64) bool {
	return l.reserved != nil && l.reserved(seq)
}

func (l *Log[T, P]) newSlot(seq uint64) *Slot[T] {
	s := &Slot[T]{}
	P(&s.Votes).Reset()
	l.slots[seq] = s
	return s
}

// Slot returns the slot at seq, or nil.
func (l *Log[T, P]) Slot(seq uint64) *Slot[T] { return l.slots[seq] }

// VoteSlot returns the slot a vote at seq counts toward, creating it when
// the vote arrives before the proposal. A vote at or below the committed
// head is a straggler: it is counted and dropped, because a recreated slot
// would linger (only SyncChainHead trims below the head) and tax every Tick
// and HasUncommitted sweep. The slasher audits envelopes before dispatch,
// so no equivocation evidence is lost.
func (l *Log[T, P]) VoteSlot(seq uint64) *Slot[T] {
	if seq <= l.committedSeq {
		l.Metrics.Stragglers().Inc()
		return nil
	}
	if s := l.slots[seq]; s != nil {
		return s
	}
	return l.newSlot(seq)
}

// PersistAccept records the slot's current binding if it changed since the
// last record for this slot. False means the record did not reach stable
// storage and the caller must withhold the vote (the durable marker stays
// clear, so the next delivery retries).
func (l *Log[T, P]) PersistAccept(seq uint64, s *Slot[T]) bool {
	if l.persist == nil || len(s.Txs) == 0 {
		return true
	}
	if s.durable && s.durableView == s.View && s.durableDigest == s.Digest {
		return true
	}
	if err := l.persist.PersistAccept(seq, s.View, s.Parent, s.Digest, s.Txs); err != nil {
		return false
	}
	s.durable = true
	s.durableView = s.View
	s.durableDigest = s.Digest
	return true
}

// persistViewState records the view position; false withholds the
// dependent message.
func (l *Log[T, P]) persistViewState() bool {
	if l.persist == nil {
		return true
	}
	return l.persist.PersistView(l.view, l.promised) == nil
}

// Open claims the next slot for a batch this primary proposes and binds it
// there with this node's own acceptance persisted. Nil means the primary
// may not propose now and the batch stays queued.
func (l *Log[T, P]) Open(txs []*types.Transaction, now time.Time) (uint64, *Slot[T]) {
	if !l.IsPrimary() || l.viewChanging || len(txs) == 0 {
		return 0, nil
	}
	// A fresh primary first replays what the deposed view owed the chain
	// (and catches up to any commit a view-change voter reported); new
	// client batches wait so they cannot steal a possibly-committed slot.
	if l.committedSeq < l.barrier || len(l.pending) > 0 {
		return 0, nil
	}
	seq := l.proposedSeq + 1
	if l.slotReserved(seq) {
		return 0, nil // the cross-shard engine holds this node's vote for the slot
	}
	parent := l.proposedHead
	block := &types.Block{Txs: txs, Parents: []types.Hash{parent}}
	digest := block.BatchDigest()
	if prev, ok := l.slots[seq]; ok {
		if prev.Committed {
			// The slot is already bound (a commit raced ahead of its body):
			// proposing over it would erase that knowledge. Chain sync
			// delivers or supersedes it.
			return 0, nil
		}
		if len(prev.Txs) > 0 && prev.View == l.view && prev.Digest != digest {
			// This node already accepted a different value for the slot in
			// THIS view (a restored acceptance whose parent did not link
			// into the proposal walk): a second value at one (view, seq) is
			// equivocation. A higher view's recovery may overwrite it.
			return 0, nil
		}
	}
	// A fresh slot, never a retained one: a slot from a deposed view may
	// linger here, and its stale votes must not count toward the new
	// binding's quorums.
	s := &Slot[T]{Digest: digest, Parent: parent, Txs: txs, Block: block, View: l.view,
		Own: true, Deadline: now.Add(l.timeout)}
	P(&s.Votes).Reset()
	// The primary's self-acceptance counts toward the quorum, so it must be
	// just as durable as a backup's — and refused (batch back to the queue)
	// when storage cannot record it.
	if !l.PersistAccept(seq, s) {
		return 0, nil
	}
	l.slots[seq] = s
	l.proposedSeq = seq
	l.proposedHead = block.Hash()
	if l.Ring.Enabled() {
		l.Ring.Recordf("propose", seq, digest, "v=%d tx0=%s", l.view, txs[0].ID)
	}
	return seq, s
}

// Bind runs the gate every proposal passes before this node votes on it,
// then binds the value to its slot. A proposal must extend the chain in
// order: the next slot with the proposed head as parent, or a duplicate of
// the in-flight proposal at the head. One further ahead parks until the
// gap fills (out-of-order delivery, or a cross-shard block in between); an
// earlier or non-extending one is stale and dropped. A proposal at a slot
// the cross-shard engine holds parks until the reservation clears. Nil
// means no vote. The caller has checked the sender, the view and that m
// carries one parent; block is m's batch as a chain block.
func (l *Log[T, P]) Bind(env *types.Envelope, m *types.ConsensusMsg, block *types.Block, now time.Time) *Slot[T] {
	parent := m.PrevHashes[0]
	if dup := l.slots[m.Seq]; !(m.Seq == l.proposedSeq && dup != nil && dup.Parent == parent) {
		if m.Seq != l.proposedSeq+1 {
			if m.Seq > l.proposedSeq+1 {
				l.parked[m.Seq] = env
			}
			return nil
		}
		if parent != l.proposedHead {
			return nil // stale across a cross-shard commit
		}
	}
	if l.slotReserved(m.Seq) {
		// This node's cross-shard vote has promised the slot away (§3.2);
		// voting for an intra-shard binding there would vote twice at one
		// height. Retried when the reservation clears (cross commit
		// advancing the chain, or abort/expiry via Tick).
		l.Ring.Recordf("reserve-park", m.Seq, m.Digest, "v=%d", m.View)
		l.parked[m.Seq] = env
		return nil
	}
	s := l.slots[m.Seq]
	if s == nil {
		s = l.newSlot(m.Seq)
	}
	if l.firstWins && len(s.Txs) > 0 && s.View == m.View && s.Digest != m.Digest {
		return nil // equivocating primary: keep the first value of the view
	}
	if s.Committed && s.Digest != m.Digest {
		return nil // the slot committed with a different value (awaiting the gap below it)
	}
	if s.View != m.View {
		P(&s.Votes).Reset()
		s.Own = false
	}
	s.Digest = m.Digest
	s.Parent = parent
	s.Txs = m.Txs
	s.Block = block
	s.View = m.View
	s.Deadline = now.Add(l.timeout)
	if l.Ring.Enabled() {
		l.Ring.Recordf("accept", m.Seq, m.Digest, "v=%d tx0=%s", m.View, m.Txs[0].ID)
	}
	if m.Seq > l.proposedSeq {
		l.proposedSeq = m.Seq
		l.proposedHead = block.Hash()
	}
	return s
}

// RetryParked replays parked proposals that may now extend the chain. The
// decisions it surfaces MUST reach the caller: a parked proposal whose
// commit raced ahead delivers the moment its body is accepted, and dropping
// that decision leaves the engine's committed state ahead of the ledger —
// the desync behind a whole class of intra/cross forks (the chain heals by
// sync, the backward head reset erases live acceptances, and the node votes
// a cross-shard block into a slot it had already promised to intra).
func (l *Log[T, P]) RetryParked(now time.Time) ([]Outbound, []Decision) {
	var out []Outbound
	var decs []Decision
	for {
		if l.slotReserved(l.proposedSeq + 1) {
			return out, decs // the slot is promised to a cross-shard vote
		}
		env, ok := l.parked[l.proposedSeq+1]
		if !ok {
			return out, decs
		}
		delete(l.parked, l.proposedSeq+1)
		o, d := l.replay(env, now)
		out = append(out, o...)
		decs = append(decs, d...)
		if len(o) == 0 {
			return out, decs // still not acceptable; avoid spinning
		}
	}
}

// Advance drains committed slots in sequence order into decisions.
func (l *Log[T, P]) Advance() []Decision {
	var out []Decision
	for {
		// committedSeq only rises, so the next slot was never delivered.
		seq := l.committedSeq + 1
		s, ok := l.slots[seq]
		if !ok || !s.Committed || len(s.Txs) == 0 {
			return out
		}
		l.committedSeq = seq
		l.committedHead = s.Block.Hash()
		l.Ring.Recordf("deliver", seq, s.Digest, "")
		out = append(out, Decision{Block: s.Block, Seq: seq})
		delete(l.slots, seq)
		l.ReportSlots()
	}
}

// relink walks the proposal chain upward over the contiguous run of slots
// that chain onto the proposed head.
func (l *Log[T, P]) relink() {
	for s := l.proposedSeq + 1; ; s++ {
		sl, ok := l.slots[s]
		if !ok || len(sl.Txs) == 0 || sl.Parent != l.proposedHead {
			return
		}
		l.proposedSeq = s
		l.proposedHead = sl.Block.Hash()
	}
}

// SyncChainHead advances the proposal chain past a block decided outside
// this engine (a cross-shard block committed by the flattened protocol
// shares the cluster's chain). The runtime calls it after appending such a
// block so subsequent intra-shard proposals chain to it. In-flight
// proposals that no longer extend the chain are discarded — this node's own
// are handed back for re-proposal, and the runtime dedups against the chain
// — and parked proposals are retried; any resulting outbound messages and
// decisions are returned.
func (l *Log[T, P]) SyncChainHead(seq uint64, head types.Hash, now time.Time) ([]Outbound, []Decision, []*types.Transaction) {
	if seq <= l.committedSeq {
		// Stale: the log has already committed past (or to) this height, so
		// the caller's chain is catching up to knowledge the log holds.
		// Rewinding the proposal chain here would discard
		// accepted-but-uncommitted slots above seq — acceptances other nodes
		// may have counted toward quorums — and a node whose erased
		// acceptance later lets it vote a cross-shard block into one of
		// those slots forks the cluster.
		l.Ring.Recordf("sync-head-stale", seq, types.ZeroHash, "c=%d p=%d", l.committedSeq, l.proposedSeq)
		return nil, nil, nil
	}
	l.Ring.Recordf("sync-head", seq, head, "was c=%d p=%d parked=%d",
		l.committedSeq, l.proposedSeq, len(l.parked))
	l.proposedSeq = seq
	l.proposedHead = head
	l.committedSeq = seq
	l.committedHead = head
	var orphans []*types.Transaction
	for s, sl := range l.slots {
		if s <= seq {
			if sl.Own && !sl.Committed {
				orphans = append(orphans, sl.Txs...)
			}
			delete(l.slots, s)
		}
	}
	// Slots ABOVE the new head survive if they still chain onto it: a synced
	// block is often exactly the parent an accepted-but-uncommitted proposal
	// was built on (the replica missed the commit, not the value), and
	// wiping such an acceptance is unsafe — the primary counted it, so the
	// slot may already be committed elsewhere, while this replica would
	// report itself drained and vote a cross-shard block into that slot.
	// Everything past the first break is dead pipeline (it chained through a
	// block that lost the slot race), except committed slots: the cluster
	// bound those, and chain sync will deliver or supersede them.
	l.relink()
	for s, sl := range l.slots {
		if s > l.proposedSeq && !sl.Committed {
			if sl.Own {
				orphans = append(orphans, sl.Txs...)
			}
			delete(l.slots, s)
		}
	}
	for s := range l.parked {
		if s <= seq {
			delete(l.parked, s)
		}
	}
	out, decs := l.RetryParked(now)
	// The synced block may have satisfied the recovery barrier.
	out = append(out, l.drainRepropose(now)...)
	return out, decs, orphans
}

// HasUncommitted reports whether any slot with a known value sits above the
// committed head — accepted-but-uncommitted, or committed above a gap. The
// cross-shard protocol must not treat the chain as drained while such a
// slot exists: its value may already hold a commit quorum elsewhere, and a
// cross-shard block voted on the current head would fork the chain
// against it.
func (l *Log[T, P]) HasUncommitted() bool {
	for seq, s := range l.slots {
		if seq <= l.committedSeq {
			continue
		}
		// A bodyless slot whose commit raced ahead of its proposal counts
		// too: the slot is known bound even though the value has not
		// arrived yet.
		if len(s.Txs) > 0 || s.Committed || P(&s.Votes).Bound(l.certQuorum) {
			return true
		}
	}
	return false
}

// Restore warms a freshly built log from recovered durable state: the view
// position and every acceptance the node had taken on, each with this
// node's own vote re-signed so it stays bound to the digest it voted for.
// Call it once, after SyncChainHead has advanced the log to the recovered
// chain head and before the node starts processing messages.
func (l *Log[T, P]) Restore(view, promised uint64, insts []DurableInstance, now time.Time) {
	if view > l.view {
		l.view = view
	}
	if promised > l.promised {
		l.promised = promised
	}
	for _, d := range insts {
		if d.Seq <= l.committedSeq || len(d.Txs) == 0 {
			continue
		}
		s := &Slot[T]{
			Digest: d.Digest, Parent: d.Parent, Txs: d.Txs,
			Block:    &types.Block{Txs: d.Txs, Parents: []types.Hash{d.Parent}},
			View:     d.View,
			Deadline: now.Add(l.timeout),
			durable:  true, durableView: d.View, durableDigest: d.Digest,
		}
		var sig []byte
		if l.signer != nil {
			// The canonical vote payload: it names the parent the vote
			// extends (see pbft.Engine.votePrepare).
			sig = l.signer.Sign((&types.ConsensusMsg{
				View: d.View, Seq: d.Seq, Digest: d.Digest, Cluster: l.Cluster,
				PrevHashes: []types.Hash{d.Parent},
			}).Encode(nil))
		}
		P(&s.Votes).Reset()
		P(&s.Votes).Vote(l.Self, d.Digest, sig)
		l.slots[d.Seq] = s
	}
	// Restored acceptances occupy their pipeline slots: walk the proposal
	// chain over the contiguous run above the committed head so a restarted
	// primary's next Propose cannot allocate — and overwrite — a slot it had
	// already accepted a value in.
	l.relink()
	l.Ring.Recordf("restore", l.proposedSeq, types.ZeroHash,
		"v=%d promised=%d committed=%d accepted=%d", l.view, l.promised, l.committedSeq, len(insts))
}

// DurableState reports the state a checkpoint must carry forward into a
// fresh log segment: the view position and every accepted-but-uncommitted
// value (including recovered values not yet re-proposed, which are
// acceptor obligations all the same).
func (l *Log[T, P]) DurableState() (view, promised uint64, insts []DurableInstance) {
	for seq, s := range l.slots {
		if seq > l.committedSeq && len(s.Txs) > 0 {
			insts = append(insts, DurableInstance{
				Seq: seq, View: s.View, Parent: s.Parent, Digest: s.Digest, Txs: s.Txs,
			})
		}
	}
	for _, c := range l.pending {
		if c.Seq > l.committedSeq {
			insts = append(insts, DurableInstance{Seq: c.Seq, View: c.View, Digest: c.Digest, Txs: c.Txs})
		}
	}
	return l.view, l.promised, insts
}

// Tick fires proposal timeouts: a backup with a slot past its deadline
// suspects the primary and votes for the next view. A fresh primary uses
// the tick to retry its recovery obligations once chain sync catches it up.
// A node stuck mid-view-change past its deadline escalates to the next view
// — the candidate primary may be dead too. A slot reservation released
// without a chain advance (cross-shard abort or expiry) leaves
// reserve-parked proposals with no other retry path than this tick.
func (l *Log[T, P]) Tick(now time.Time) ([]Outbound, []Decision) {
	if l.viewChanging {
		if now.After(l.vcDeadline) {
			next := l.promised + 1
			l.Ring.Recordf("vc-escalate", 0, types.ZeroHash, "nv=%d", next)
			return l.startViewChange(next, now), nil
		}
		return nil, nil
	}
	out, decs := l.RetryParked(now)
	if l.IsPrimary() {
		return append(out, l.drainRepropose(now)...), decs
	}
	for seq, s := range l.slots {
		if seq > l.committedSeq && !s.Committed && len(s.Txs) > 0 && now.After(s.Deadline) {
			return append(out, l.startViewChange(l.view+1, now)...), decs
		}
	}
	return out, decs
}

// SuspectPrimary votes to depose the current primary. The runtime calls it
// when a forwarded client request goes unexecuted past its timeout — the
// PBFT rule that lets a cluster recover from a primary that fails while
// holding no in-flight proposals.
func (l *Log[T, P]) SuspectPrimary(now time.Time) []Outbound {
	if l.IsPrimary() || l.viewChanging {
		return nil
	}
	return l.startViewChange(l.view+1, now)
}

func (l *Log[T, P]) startViewChange(newView uint64, now time.Time) []Outbound {
	l.viewChanging = true
	// Give the candidate primary two full windows to assemble the new view
	// before escalating past it.
	l.vcDeadline = now.Add(2 * l.timeout)
	if newView > l.promised {
		l.promised = newView
	}
	// The promise must hit stable storage before the vote leaves: a
	// restarted node that forgot it could accept proposals from the deposed
	// view, invisible to the new view's value recovery. Unpersistable ⇒ no
	// vote (the escalation timer retries).
	if !l.persistViewState() {
		return nil
	}
	vc := &types.ViewChange{
		NewView:  newView,
		Cluster:  l.Cluster,
		LastSeq:  l.committedSeq,
		LastHash: l.committedHead,
	}
	// Report every uncommitted value this node voted for that the engine can
	// certify, with its body, so the new primary can re-propose it. Any value
	// that reached a commit quorum at the deposed primary was voted for by
	// enough members of every view-change quorum to be reported.
	// Committed-but-undelivered slots are reported too: they are bound slots
	// the new primary must respect.
	reported := make(map[uint64]bool)
	for seq, s := range l.slots {
		if seq <= l.committedSeq || len(s.Txs) == 0 {
			continue
		}
		proof := P(&s.Votes).Proof(s.Digest)
		if len(proof) < l.certQuorum {
			continue
		}
		vc.Prepared = append(vc.Prepared, types.PreparedInstance{
			Seq: seq, View: s.View, Digest: s.Digest, Parent: s.Parent, Txs: s.Txs, Proof: proof,
		})
		reported[seq] = true
		if seq > vc.PreparedSeq {
			vc.PreparedSeq = seq
			vc.PreparedHash = s.Digest
		}
	}
	// Values this node recovered as primary but had not re-proposed yet live
	// only in pending; they must survive into the next view's recovery as
	// well, or a twice-deposed value could lose its slot. Their certificates
	// ride along from the recovery that admitted them.
	for _, c := range l.pending {
		if c.Seq > l.committedSeq && !reported[c.Seq] {
			vc.Prepared = append(vc.Prepared, c)
		}
	}
	l.recordViewChange(l.Self, vc)
	l.Ring.Recordf("vc-vote", vc.LastSeq, types.ZeroHash, "nv=%d prepared=%d", newView, len(vc.Prepared))
	payload := vc.Encode(nil)
	env := &types.Envelope{Type: types.MsgViewChange, From: l.Self, Payload: payload, Sig: l.Sign(payload)}
	return []Outbound{{To: l.Peers(), Env: env}}
}

func (l *Log[T, P]) recordViewChange(from types.NodeID, vc *types.ViewChange) {
	m, ok := l.vcVotes[vc.NewView]
	if !ok {
		m = make(map[types.NodeID]*types.ViewChange)
		l.vcVotes[vc.NewView] = m
	}
	m[from] = vc
}

// OnViewChange records a view-change vote and joins the change once join
// distinct nodes ask for the view. When this node is the view's primary and
// holds quorum votes for it, it returns those votes: the engine drops the
// reports it cannot trust and hands the rest to LeadView.
func (l *Log[T, P]) OnViewChange(env *types.Envelope, now time.Time, join, quorum int) ([]Outbound, map[types.NodeID]*types.ViewChange) {
	vc, err := types.DecodeViewChange(env.Payload)
	if err != nil || vc.NewView <= l.view || vc.Cluster != l.Cluster {
		return nil, nil
	}
	l.recordViewChange(env.From, vc)
	votes := l.vcVotes[vc.NewView]
	var out []Outbound
	if !l.viewChanging && len(votes) >= join {
		out = l.startViewChange(vc.NewView, now)
	}
	if l.Topo.Primary(l.Cluster, vc.NewView) != l.Self || len(votes) < quorum {
		return out, nil
	}
	return out, votes
}

// LeadView announces the new view the votes (all for one view) elect this
// node to lead, adopts their recovery reports, installs the view and
// re-proposes what it owes the chain. The catch-up barrier is the rank-th
// highest commit a voter reports.
func (l *Log[T, P]) LeadView(votes map[types.NodeID]*types.ViewChange, rank int, now time.Time) []Outbound {
	var nv uint64
	lastSeqs := make([]uint64, 0, len(votes))
	cands := make(map[uint64]types.PreparedInstance)
	for _, vc := range votes {
		nv = vc.NewView
		lastSeqs = append(lastSeqs, vc.LastSeq)
		for _, p := range vc.Prepared {
			if p.Seq <= l.committedSeq || len(p.Txs) == 0 || types.BatchDigest(p.Txs) != p.Digest {
				continue
			}
			// Highest accept-view wins per slot.
			if cur, ok := cands[p.Seq]; !ok || p.View > cur.View {
				cands[p.Seq] = p
			}
		}
	}
	sort.Slice(lastSeqs, func(i, j int) bool { return lastSeqs[i] > lastSeqs[j] })
	l.barrier = l.committedSeq
	if len(lastSeqs) >= rank && lastSeqs[rank-1] > l.barrier {
		l.barrier = lastSeqs[rank-1]
	}
	l.pending = l.pending[:0]
	for _, c := range cands {
		l.pending = append(l.pending, c)
	}
	sort.Slice(l.pending, func(i, j int) bool { return l.pending[i].Seq < l.pending[j].Seq })
	l.Ring.Recordf("adopt-recovery", l.barrier, types.ZeroHash,
		"pending=%d committed=%d", len(l.pending), l.committedSeq)

	msg := &types.ViewChange{NewView: nv, Cluster: l.Cluster, LastSeq: l.committedSeq, LastHash: l.committedHead}
	payload := msg.Encode(nil)
	out := []Outbound{{To: l.Peers(),
		Env: &types.Envelope{Type: types.MsgNewView, From: l.Self, Payload: payload, Sig: l.Sign(payload)}}}
	l.InstallView(nv, now)
	return append(out, l.drainRepropose(now)...)
}

// drainRepropose re-binds recovered values once the primary has caught up
// to the barrier; slots already filled by synced blocks are skipped.
func (l *Log[T, P]) drainRepropose(now time.Time) []Outbound {
	if !l.IsPrimary() || l.viewChanging || l.committedSeq < l.barrier || len(l.pending) == 0 {
		return nil
	}
	pending := l.pending
	l.pending = nil
	var out []Outbound
	for _, c := range pending {
		if c.Seq <= l.committedSeq {
			continue // chain sync already delivered this slot
		}
		o, _ := l.repropose(c.Txs, now)
		out = append(out, o...)
	}
	return out
}

// OnNewView installs the view a new primary announces.
func (l *Log[T, P]) OnNewView(env *types.Envelope, now time.Time) ([]Outbound, []Decision) {
	nv, err := types.DecodeViewChange(env.Payload)
	if err != nil || nv.NewView < l.view || nv.Cluster != l.Cluster {
		return nil, nil
	}
	if env.From != l.Topo.Primary(l.Cluster, nv.NewView) {
		return nil, nil
	}
	l.InstallView(nv.NewView, now)
	return nil, nil
}

// InstallView moves to view v (a no-op past ending the view change when v
// is not newer).
func (l *Log[T, P]) InstallView(v uint64, now time.Time) {
	if v <= l.view {
		l.viewChanging = false
		return
	}
	l.view = v
	l.viewChanging = false
	l.Metrics.VC().Inc()
	// Best effort: the installed view is recoverable from peers (a higher
	// view's first proposal re-installs it); the promise is what safety
	// rides on.
	l.persistViewState()
	l.Ring.Recordf("install-view", l.committedSeq, types.ZeroHash, "v=%d", v)
	// Reset the proposal chain to committed state. Uncommitted acceptances
	// are RETAINED: like Paxos acceptors, this node keeps the values it
	// voted for so later view changes can still recover them (a value may
	// hold a commit quorum at the deposed primary). Their timers restart so
	// the new primary gets a full window to re-bind them; the new view's
	// proposals overwrite them slot by slot.
	l.proposedSeq = l.committedSeq
	l.proposedHead = l.committedHead
	for seq, s := range l.slots {
		if seq > l.committedSeq && !s.Committed {
			s.Deadline = now.Add(l.timeout)
		}
	}
	l.parked = make(map[uint64]*types.Envelope)
}
