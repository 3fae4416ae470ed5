package core

import (
	"bytes"
	"math/rand"
	"os"
	"slices"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// coordinator runs SharPer's flattened cross-shard consensus (§3.2
// Algorithm 1 under crash faults, §3.3 Algorithm 2 under Byzantine faults).
// The initiator primary multicasts PROPOSE to every node of every involved
// cluster; each node votes ACCEPT carrying its cluster's previous-block hash
// h_j; a quorum of matching accepts from every involved cluster fixes the
// per-cluster hash list, COMMIT spreads it, and every involved node executes
// and appends. The two algorithms differ only in how votes travel and are
// tallied, which is the votePolicy; everything else lives here once.
//
// Conflict handling follows §3.2 "Safety and Liveness", enforced through the
// node's shared conflict table rather than a whole-node boolean lock: a node
// that has voted ACCEPT holds the table's slot vote (it has promised its
// chain head to this attempt) until the decision or an abort. Concurrent
// conflicting transactions can deadlock each other's quorums, so an
// initiator whose attempt times out *withdraws* it: it invalidates the
// attempt's votes, multicasts ABORT to release the participants' slot votes,
// and re-proposes after an exponentially backed-off, jittered delay. A long
// unilateral expiry remains as a last resort against a crashed initiator.
//
// An initiator keeps several leads in flight: the conflict table admits
// same-set attempts, which pipeline FIFO through the participants' slot
// votes, and cluster-disjoint attempts, which never contend. The PROPOSE for
// the next attempt travels while the previous one commits. The initiator's
// own vote for a lead is deferred while another attempt holds the slot and
// cast the moment it frees.
type coordinator struct {
	topo    *consensus.Topology
	cluster types.ClusterID
	self    types.NodeID
	// signer signs every outbound envelope; nil under the crash policy,
	// whose envelopes travel unsigned.
	signer crypto.Signer

	status   func() chainStatus            // local cluster-chain state
	validate func(*types.Transaction) bool // local-part validation

	// table is the node-wide conflict table: the single authority over the
	// slot vote and lead admission, shared with the node's scheduler.
	table    *consensus.ConflictTable
	maxLeads int

	lockTimeout  time.Duration
	retryTimeout time.Duration
	rng          *rand.Rand

	policy votePolicy

	// Proposals waiting for the slot vote or an undrained chain,
	// deduplicated by digest (retries replace earlier copies). waitOrder
	// keeps arrival order so parked proposals drain FIFO — pipelined
	// same-set attempts from one initiator must be granted in the order
	// they were proposed at every participant, or they withdraw-churn.
	waiting   map[types.Hash]parked
	waitOrder []types.Hash

	// Initiator state, keyed by batch digest. leadOrder lists the leads in
	// initiation order, so Tick walks them (and draws backoff jitter) in the
	// same order on every run; retired digests are compacted away before
	// the next append and at each Tick.
	leads     map[types.Hash]*xlead
	leadOrder []types.Hash
	pending   []types.Hash // castSelfVotes scratch

	// decided is the replay guard: a late or replayed PROPOSE for a decided
	// digest must never take a slot vote again, so it is never trimmed.
	decided map[types.Hash]bool

	// Diagnostics (read via Stats, and the wait sums by tests).
	nPropose, nWithdraw, nGrant, nDecide, nLockExpire, nParks int
	parkWait, leadWait, lockHold                              time.Duration
	lockedAt                                                  time.Time

	// ring is a bounded ring of slot-vote events (SHARPER_TRACE only),
	// read next to the intra engine's ring when hunting intra/cross forks:
	// the two rings together show every vote a node cast for one chain slot.
	ring *obs.EventRing
	// tracer, when non-nil, receives digest-keyed lifecycle stamps for
	// sampled cross-shard transactions (propose / lock-grant / prepared).
	tracer *obs.TxTracer
}

// votePolicy is what Algorithms 1 and 2 do differently: how ACCEPT, COMMIT
// and ABORT travel, who tallies them, and the model-specific guards.
type votePolicy interface {
	// step handles one PROPOSE, ACCEPT, COMMIT or ABORT.
	step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision)
	// newAttempt resets the tally for lead's freshly proposed attempt.
	newAttempt(lead *xlead, now time.Time)
	// votedElsewhere reports whether this node already voted on lead's
	// digest at its current view by granting a foreign PROPOSE.
	votedElsewhere(lead *xlead) bool
	// selfVote casts the initiator's own vote; the slot vote is taken.
	selfVote(lead *xlead, st chainStatus) []consensus.Outbound
	// tally re-checks lead's quorum after a deferred self vote was cast.
	tally(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision)
	// release frees what the withdrawn attempt holds at this node.
	release(lead *xlead, now time.Time)
	// forget drops the per-digest state of a retired lead.
	forget(digest types.Hash)
	// tick runs the policy's timers and calls expireLock where its rules
	// need it: the crash lock nudge reads the holder's deadline before the
	// expiry clears it, and the Byzantine dead-commit release runs after
	// it, so an expiring dead commit still counts as an expiry.
	tick(now time.Time) []consensus.Outbound
}

// xlead is one initiator instance.
type xlead struct {
	start    time.Time
	txs      []*types.Transaction
	involved types.ClusterSet
	digest   types.Hash
	view     uint64 // attempt number; votes from older attempts don't match
	deadline time.Time
	attempts int
	dormant  bool // withdrawn, waiting out the backoff before re-proposing
	// fastRetried limits split-vote-triggered re-proposals to one per
	// timer window, so persistently split heads cannot spin the initiator.
	fastRetried bool
	// needSelfVote marks a proposed attempt whose initiator vote is still
	// deferred behind a busy slot; it is cast when the slot frees.
	needSelfVote bool
	waitNoted    bool
	// votes is the crash policy's accept tally for the current attempt.
	votes *consensus.HashVoteSet
}

// parked is a proposal held back for the slot vote or an undrained chain.
type parked struct {
	env   *types.Envelope
	since time.Time
}

// maxCrossAttempts bounds initiator re-proposals; past it the instance is
// dropped and the client's retransmission takes over.
const maxCrossAttempts = 64

// newCoordinator builds the cross-shard coordinator with the Byzantine vote
// policy (signed, decentralized tallies) or the crash one.
func newCoordinator(byzantine bool, topo *consensus.Topology, cluster types.ClusterID,
	self types.NodeID, signer crypto.Signer, verifier crypto.Verifier,
	table *consensus.ConflictTable, status func() chainStatus,
	validate func(*types.Transaction) bool,
	lockTimeout, retryTimeout time.Duration, maxLeads int, seed int64) *coordinator {
	if maxLeads <= 0 {
		maxLeads = 1
	}
	x := &coordinator{
		topo: topo, cluster: cluster, self: self, status: status, validate: validate,
		table: table, maxLeads: maxLeads,
		lockTimeout: lockTimeout, retryTimeout: retryTimeout,
		rng:     rand.New(rand.NewSource(seed)),
		waiting: make(map[types.Hash]parked),
		leads:   make(map[types.Hash]*xlead),
		decided: make(map[types.Hash]bool),
		ring:    obs.NewEventRing(0, os.Getenv("SHARPER_TRACE") != ""),
	}
	if byzantine {
		x.signer = signer
		x.policy = &byzVotes{coordinator: x, verify: verifier,
			instances: make(map[types.Hash]*xinst)}
	} else {
		x.policy = &crashVotes{coordinator: x}
	}
	return x
}

// DebugTrace returns the recent slot-vote events (oldest first).
func (x *coordinator) DebugTrace() []string { return x.ring.Lines() }

// DebugEvents returns the recent slot-vote events in structured form.
func (x *coordinator) DebugEvents() []obs.Event { return x.ring.Events() }

// Stats reports the scheduler-observability counters.
func (x *coordinator) Stats() types.SchedStats {
	_, _, _, defers, avoided, selfWaits, hw := x.table.Stats()
	return types.SchedStats{
		Proposes:      uint64(x.nPropose),
		Withdraws:     uint64(x.nWithdraw),
		Grants:        uint64(x.nGrant),
		Decides:       uint64(x.nDecide),
		LockExpiries:  uint64(x.nLockExpire),
		Parks:         uint64(x.nParks),
		LeadsInFlight: uint64(x.table.Leads()),
		LeadHighWater: hw,
		TableSize:     uint64(x.table.Size()),
		Defers:        defers,
		DefersAvoided: avoided,
		SelfVoteWaits: selfWaits,
	}
}

// Locked reports whether this node holds the slot vote for an in-flight
// cross-shard attempt (§3.2: a node that voted accepts no other
// transaction until commit or timeout).
func (x *coordinator) Locked() bool { return x.table.Held() }

// Waiting reports the number of parked proposals. A primary must stop
// feeding intra-shard proposals while it is non-zero, or the chain never
// drains and the parked proposals starve.
func (x *coordinator) Waiting() int { return len(x.waiting) }

// CanInitiate reports whether a new lead over the involved-cluster set may
// launch alongside the in-flight ones: the conflict table admits identical
// sets (they pipeline FIFO) and sets disjoint outside the own cluster (they
// never contend), up to the lead cap.
func (x *coordinator) CanInitiate(involved types.ClusterSet) bool {
	return x.table.CanLead(involved, min(x.maxLeads, crossLeadDepth))
}

// ActiveLeads reports the in-flight leads over exactly this set, so the
// scheduler can keep accumulating a batch while one works.
func (x *coordinator) ActiveLeads(involved types.ClusterSet) int {
	return x.table.LeadsFor(involved)
}

// NeedsSlot reports whether an in-flight lead is still waiting to cast its
// initiator vote — the node's scheduler must let the chain drain then.
func (x *coordinator) NeedsSlot() bool {
	for _, lead := range x.leads {
		if lead.needSelfVote && !lead.dormant {
			return true
		}
	}
	return false
}

// backoff returns the jittered, exponentially growing re-propose delay.
func (x *coordinator) backoff(attempts int) time.Duration {
	base := x.retryTimeout << uint(min(attempts-1, 2))
	return base + time.Duration(x.rng.Int63n(int64(x.retryTimeout)))
}

// envelope wraps an encoded message, signed when the policy signs.
func (x *coordinator) envelope(t types.MsgType, m *types.ConsensusMsg) *types.Envelope {
	payload := m.Encode(nil)
	env := &types.Envelope{Type: t, From: x.self, Payload: payload}
	if x.signer != nil {
		env.Sig = x.signer.Sign(payload)
	}
	return env
}

// multicast addresses env to every other node of the involved clusters.
func (x *coordinator) multicast(involved types.ClusterSet, env *types.Envelope) consensus.Outbound {
	return consensus.Outbound{To: consensus.Others(x.topo.InvolvedNodes(involved), x.self), Env: env}
}

// Initiate starts flattened consensus (lines 6–8) on a batch of
// cross-shard transactions that share one involved-cluster set. The caller
// guarantees this node is the primary of an involved cluster (normally the
// super primary) and has checked CanInitiate.
func (x *coordinator) Initiate(txs []*types.Transaction, now time.Time) []consensus.Outbound {
	involved, ok := batchInvolved(txs)
	if !ok {
		return nil
	}
	digest := types.BatchDigest(txs)
	if x.decided[digest] || x.leads[digest] != nil {
		return nil
	}
	lead := &xlead{start: now, txs: txs, involved: involved, digest: digest}
	x.compactLeadOrder()
	x.leads[digest] = lead
	x.leadOrder = append(x.leadOrder, digest)
	x.table.RegisterLead(digest, involved)
	return x.propose(lead, now)
}

// propose (re)issues the PROPOSE multicast for a lead and casts the
// initiator's own vote if the slot is free (deferring it otherwise). A fresh
// attempt cannot decide on its initiator's vote alone.
func (x *coordinator) propose(lead *xlead, now time.Time) []consensus.Outbound {
	x.nPropose++
	x.tracer.StampDigest(lead.digest, obs.StagePropose, now)
	x.ring.Recordf("xpropose", uint64(lead.attempts+1), lead.digest, "v=%d", lead.view+1)
	lead.attempts++
	lead.view++
	lead.dormant, lead.fastRetried = false, false
	lead.deadline = now.Add(x.backoff(lead.attempts))
	lead.needSelfVote, lead.waitNoted = true, false

	st := x.status()
	msg := &types.ConsensusMsg{
		View:       lead.view,
		Digest:     lead.digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		Txs:        lead.txs,
	}
	outs := []consensus.Outbound{x.multicast(lead.involved, x.envelope(types.MsgXPropose, msg))}
	x.policy.newAttempt(lead, now)
	return append(outs, x.castLeadVote(lead, now)...)
}

// retrySplit re-proposes a lead whose votes have split across chain heads
// so that no matching quorum can form at this view: the lagging nodes will
// have converged by the time the new attempt arrives. At most one fast
// retry per timer window, so persistently split heads fall back to the
// withdraw/backoff cycle instead of spinning.
func (x *coordinator) retrySplit(lead *xlead, now time.Time) []consensus.Outbound {
	out := x.propose(lead, now)
	lead.fastRetried = true
	return out
}

// castLeadVote casts the initiator's own vote for a lead once the chain is
// drained and the slot vote is grantable; until then the vote stays pending
// (the PROPOSE is already in flight — participants vote meanwhile).
func (x *coordinator) castLeadVote(lead *xlead, now time.Time) []consensus.Outbound {
	if !lead.needSelfVote || lead.dormant {
		return nil
	}
	if x.policy.votedElsewhere(lead) {
		lead.needSelfVote = false
		return nil
	}
	st := x.status()
	if !st.Drained || !x.table.CanVote(lead.digest) {
		if !lead.waitNoted {
			lead.waitNoted = true
			x.table.NoteSelfVoteWait()
		}
		return nil
	}
	x.acquire(lead.digest, lead.involved, st, now)
	x.tracer.StampDigest(lead.digest, obs.StageLockGrant, now)
	x.ring.Recordf("xselfvote", st.Seq+1, lead.digest, "head=%s v=%d", st.Head, lead.view)
	lead.needSelfVote = false
	return x.policy.selfVote(lead, st)
}

// castSelfVotes retries pending initiator votes in digest order (a
// deterministic tie-break; at most one can take the slot anyway).
func (x *coordinator) castSelfVotes(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if x.table.Held() || !x.status().Drained {
		return nil, nil // no self-vote can be cast; skip the scan
	}
	x.pending = x.pending[:0]
	for dg, lead := range x.leads {
		if lead.needSelfVote && !lead.dormant {
			x.pending = append(x.pending, dg)
		}
	}
	if len(x.pending) == 0 {
		return nil, nil
	}
	slices.SortFunc(x.pending, func(a, b types.Hash) int { return bytes.Compare(a[:], b[:]) })
	var outs []consensus.Outbound
	var decs []crossDecision
	for _, dg := range x.pending {
		lead, ok := x.leads[dg]
		if !ok {
			continue
		}
		outs = append(outs, x.castLeadVote(lead, now)...)
		if !lead.needSelfVote {
			// Our vote may have been the last one missing.
			o, d := x.policy.tally(lead, now)
			outs, decs = append(outs, o...), append(decs, d...)
		}
	}
	return outs, decs
}

// withdraw invalidates the current attempt and releases the slot votes it
// holds. The lead stays registered (dormant) so its set keeps screening new
// lead admissions until it decides or is dropped.
func (x *coordinator) withdraw(lead *xlead, now time.Time) consensus.Outbound {
	x.nWithdraw++
	lead.dormant, lead.needSelfVote = true, false
	lead.deadline = now.Add(x.backoff(lead.attempts))
	x.policy.release(lead, now)
	msg := &types.ConsensusMsg{View: lead.view, Digest: lead.digest, Cluster: x.cluster}
	return x.multicast(lead.involved, x.envelope(types.MsgXAbort, msg))
}

// dropLead retires a lead; leadOrder forgets it at its next compaction.
func (x *coordinator) dropLead(digest types.Hash) {
	delete(x.leads, digest)
	x.table.DropLead(digest)
	x.policy.forget(digest)
}

// compactLeadOrder drops retired digests from leadOrder in place.
func (x *coordinator) compactLeadOrder() {
	if len(x.leadOrder) == len(x.leads) {
		return
	}
	kept := x.leadOrder[:0]
	for _, dg := range x.leadOrder {
		if _, ok := x.leads[dg]; ok {
			kept = append(kept, dg)
		}
	}
	x.leadOrder = kept
}

// decide records a decision at this node: the digest leaves the waiting
// set, its slot vote is released, and a local lead for it retires.
func (x *coordinator) decide(digest types.Hash, now time.Time) {
	x.decided[digest] = true
	x.ring.Recordf("xdecide", 0, digest, "")
	x.unpark(digest, now)
	x.unlock(digest, now)
	if lead, ok := x.leads[digest]; ok {
		x.nDecide++
		x.leadWait += now.Sub(lead.start)
		x.dropLead(digest)
	}
}

// acquire takes the slot vote for digest (the §3.2 lock), promising the
// current head as the predecessor of the next chain slot.
func (x *coordinator) acquire(digest types.Hash, involved types.ClusterSet, st chainStatus, now time.Time) {
	if !x.table.Held() {
		x.lockedAt = now
	}
	x.table.Acquire(digest, involved, st.Seq+1, st.Head, now.Add(x.lockTimeout))
}

func (x *coordinator) unlock(digest types.Hash, now time.Time) {
	if x.table.Release(digest) {
		x.lockHold += now.Sub(x.lockedAt)
		x.ring.Recordf("xrelease", 0, digest, "")
	}
}

// expireLock releases a slot vote whose initiator died without committing
// or aborting (the §3.2 "pre-determined time").
func (x *coordinator) expireLock(now time.Time) {
	if d, ok := x.table.ExpireHolder(now); ok {
		x.nLockExpire++
		x.lockHold += now.Sub(x.lockedAt)
		x.ring.Recordf("xexpire", 0, d, "")
	}
}

// grantable reports whether a proposal for digest may take the slot vote
// now; otherwise it parks until the vote frees or the chain drains.
func (x *coordinator) grantable(digest types.Hash, env *types.Envelope, st chainStatus, now time.Time) bool {
	if !st.Drained || !x.table.CanVote(digest) {
		x.park(digest, env, now)
		return false
	}
	x.unpark(digest, now)
	return true
}

// park holds a proposal back, keeping arrival order for FIFO granting.
func (x *coordinator) park(digest types.Hash, env *types.Envelope, now time.Time) {
	p, ok := x.waiting[digest]
	if !ok {
		x.waitOrder = append(x.waitOrder, digest)
		x.nParks++
		p.since = now
	}
	p.env = env
	x.waiting[digest] = p
}

// unpark removes a proposal from the waiting set (granted, committed,
// aborted, or decided); waitOrder is compacted lazily by drainWaiting.
func (x *coordinator) unpark(digest types.Hash, now time.Time) {
	if p, ok := x.waiting[digest]; ok {
		x.parkWait += now.Sub(p.since)
		delete(x.waiting, digest)
	}
}

// Step consumes a cross-shard protocol message.
func (x *coordinator) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	return x.policy.step(env, now)
}

// OnChainAdvanced retries pending initiator votes and parked proposals now
// that the chain moved (or a slot vote was released). Self-votes go first:
// an in-flight lead waiting for its own cluster's slot already holds (or is
// acquiring) higher clusters' slots, so granting its home lock before any
// foreign parked proposal keeps every attempt's lock acquisition
// lowest-cluster-first — the ordering that keeps the cross-shard waits-for
// graph acyclic.
func (x *coordinator) OnChainAdvanced(now time.Time) ([]consensus.Outbound, []crossDecision) {
	outs, decs := x.castSelfVotes(now)
	return append(outs, x.drainWaiting(now)...), decs
}

// drainWaiting re-steps parked proposals in arrival order; at most one
// acquires the slot vote, the rest re-park. FIFO order keeps pipelined
// same-set attempts from one initiator granting in propose order at every
// participant.
func (x *coordinator) drainWaiting(now time.Time) []consensus.Outbound {
	if len(x.waiting) == 0 || x.table.Held() {
		x.compactWaitOrder()
		return nil
	}
	if !x.status().Drained {
		// No parked proposal can be granted on an undrained chain; skip the
		// rescan (each one re-decodes full batch payloads) until the intra
		// pipeline lands.
		return nil
	}
	// A re-stepped proposal re-parks under its own digest, which is still
	// waiting, so nothing is appended to waitOrder while it is walked.
	var outs []consensus.Outbound
	for _, dg := range x.waitOrder {
		p, ok := x.waiting[dg]
		if !ok {
			continue // unpark happened; compacted below
		}
		o, _ := x.policy.step(p.env, now) // a PROPOSE never decides
		outs = append(outs, o...)
		if x.table.Held() {
			break
		}
	}
	x.compactWaitOrder()
	return outs
}

// compactWaitOrder drops unparked digests once they dominate the order list.
func (x *coordinator) compactWaitOrder() {
	if len(x.waitOrder) <= 4*len(x.waiting)+8 {
		return
	}
	kept := x.waitOrder[:0]
	for _, dg := range x.waitOrder {
		if _, ok := x.waiting[dg]; ok {
			kept = append(kept, dg)
		}
	}
	x.waitOrder = kept
}

// Tick fires the policy's timers and the slot-vote expiry, and drives the
// initiator's withdraw/backoff/re-propose cycle.
func (x *coordinator) Tick(now time.Time) ([]consensus.Outbound, []crossDecision) {
	outs := x.policy.tick(now)
	x.compactLeadOrder()
	for _, digest := range x.leadOrder {
		lead, ok := x.leads[digest]
		if !ok || !now.After(lead.deadline) {
			continue
		}
		if lead.dormant {
			// Re-propose only when this node could actually vote again:
			// between withdraw and re-propose the slot may have been granted
			// to a parked proposal.
			if x.table.CanVote(digest) && x.status().Drained {
				outs = append(outs, x.propose(lead, now)...)
			} else {
				lead.deadline = now.Add(x.retryTimeout)
			}
			continue
		}
		outs = append(outs, x.withdraw(lead, now))
		if lead.attempts >= maxCrossAttempts {
			x.dropLead(digest)
			continue
		}
		// Same-set followers share the conflict that stalled this attempt
		// AND must not keep remote slot votes while the home slot could go
		// to a foreign attempt: withdraw them together.
		for _, dg2 := range x.leadOrder {
			if l2, ok := x.leads[dg2]; ok && dg2 != digest && !l2.dormant && l2.involved.Equal(lead.involved) {
				outs = append(outs, x.withdraw(l2, now))
			}
		}
	}
	o, decs := x.OnChainAdvanced(now)
	return append(outs, o...), decs
}
