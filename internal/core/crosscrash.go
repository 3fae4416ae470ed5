package core

import (
	"bytes"
	"math/rand"
	"os"
	"sort"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// xcrash implements Algorithm 1: flattened cross-shard consensus with
// crash-only nodes. The initiator primary multicasts PROPOSE to every node
// of every involved cluster; each node answers ACCEPT (carrying its
// cluster's previous-block hash h_j) directly to the initiator; the
// initiator collects f+1 matching accepts from every involved cluster,
// assembles the per-cluster hash list, and multicasts COMMIT; everyone
// executes and appends.
//
// Conflict handling follows §3.2 "Safety and Liveness", enforced through the
// node's shared conflict table rather than a whole-node boolean lock: a node
// that has sent an ACCEPT holds the table's slot vote (it has promised its
// chain head to this attempt) until the COMMIT arrives. Concurrent
// conflicting transactions can deadlock each other's quorums, so an
// initiator whose attempt times out *withdraws* it: it invalidates the
// attempt's votes, multicasts ABORT to release the participants' slot votes,
// and re-proposes after an exponentially backed-off, jittered delay. Votes
// are invalidated by the view bump itself, which keeps stale accepts from
// ever forming a quorum. A long unilateral expiry remains as a last resort
// against a crashed initiator.
//
// Unlike the serialized scheduler this engine replaced, an initiator keeps
// several leads in flight (the conflict table admits same-set attempts,
// which pipeline FIFO through the participants' slot votes, and
// cluster-disjoint attempts, which never contend): the PROPOSE for the next
// attempt travels while the previous one commits. The initiator's own vote
// for a lead is deferred while another attempt holds the slot and cast the
// moment it frees.
type xcrash struct {
	topo    *consensus.Topology
	cluster types.ClusterID
	self    types.NodeID

	status   func() chainStatus            // local cluster-chain state
	validate func(*types.Transaction) bool // local-part validation

	// table is the node-wide conflict table: the single authority over the
	// slot vote and lead admission, shared with the node's scheduler.
	table    *consensus.ConflictTable
	maxLeads int

	lockTimeout  time.Duration
	retryTimeout time.Duration
	rng          *rand.Rand

	// lockReply/lockFrom let a participant whose slot vote has sat
	// un-released for most of its window re-send the accept to the
	// initiator: a decided attempt answers with the (possibly lost) commit,
	// a withdrawn one with an abort — either beats expiring unilaterally and
	// diverging. lockReplyDigest names the vote the reply belongs to.
	lockReply       *types.Envelope
	lockFrom        types.NodeID
	lockNudged      bool
	lockReplyDigest types.Hash

	// Proposals waiting for the slot vote or an undrained chain,
	// deduplicated by digest (retries replace earlier copies). waitOrder
	// keeps arrival order so parked proposals drain FIFO — pipelined
	// same-set attempts from one initiator must be granted in the order
	// they were proposed at every participant, or they withdraw-churn.
	waiting   map[types.Hash]*types.Envelope
	waitOrder []types.Hash

	// Initiator state, keyed by transaction digest.
	leads map[types.Hash]*xlead

	decided map[types.Hash]bool // digests already decided locally
	txs     map[types.Hash][]*types.Transaction
	// recent retains decided attempts' COMMIT multicasts for a bounded
	// retransmission schedule: a commit lost or badly delayed on its way to
	// a participant cluster would otherwise leave that cluster's view
	// permanently missing the block (no participant can fetch a decision it
	// never saw, and intra-cluster chain sync cannot heal a cluster where
	// nobody has it).
	recent map[types.Hash]*xcommitRetain

	// Diagnostics (read via Counters / Stats).
	nPropose, nWithdraw, nGrant, nDecide, nLockExpire int
	parkedAt                                          map[types.Hash]time.Time
	parkWait                                          time.Duration
	nParks                                            int
	leadWait                                          time.Duration
	lockHold                                          time.Duration
	lockedAt                                          time.Time

	// ring is a bounded ring of slot-vote events (SHARPER_TRACE only),
	// read next to the intra engine's ring when hunting intra/cross forks:
	// the two rings together show every vote a node cast for one chain slot.
	ring *obs.EventRing
	// tracer, when non-nil, receives digest-keyed lifecycle stamps for
	// sampled cross-shard transactions (propose / lock-grant / prepared).
	tracer *obs.TxTracer
}

// DebugTrace returns the recent slot-vote events (oldest first).
func (x *xcrash) DebugTrace() []string { return x.ring.Lines() }

// DebugEvents returns the recent slot-vote events in structured form.
func (x *xcrash) DebugEvents() []obs.Event { return x.ring.Events() }

// WaitStats reports accumulated wait diagnostics.
func (x *xcrash) WaitStats() (parks int, avgParkMs, avgLeadMs, avgLockHoldMs float64) {
	parks = x.nParks
	if x.nParks > 0 {
		avgParkMs = float64(x.parkWait.Milliseconds()) / float64(x.nParks)
	}
	if x.nDecide > 0 {
		avgLeadMs = float64(x.leadWait.Microseconds()) / 1000 / float64(x.nDecide)
	}
	if x.nGrant+x.nPropose > 0 {
		avgLockHoldMs = float64(x.lockHold.Microseconds()) / 1000 / float64(x.nGrant+x.nPropose)
	}
	return
}

// Counters reports protocol-event counts for diagnostics and tests.
func (x *xcrash) Counters() (proposes, withdraws, grants, decides, lockExpiries int) {
	return x.nPropose, x.nWithdraw, x.nGrant, x.nDecide, x.nLockExpire
}

// Stats reports the scheduler-observability counters.
func (x *xcrash) Stats() types.SchedStats {
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

type xlead struct {
	start    time.Time
	txs      []*types.Transaction
	involved types.ClusterSet
	digest   types.Hash
	votes    *consensus.HashVoteSet
	view     uint64 // attempt number; votes from older attempts don't match
	deadline time.Time
	dormant  bool // withdrawn, waiting out the backoff before re-proposing
	done     bool
	attempts int
	// needSelfVote marks a proposed attempt whose initiator vote is still
	// deferred behind a busy slot; it is cast when the slot frees.
	needSelfVote bool
	waitNoted    bool
	// fastRetried limits split-vote-triggered re-proposals to one per
	// timer window, so persistently split heads cannot spin the initiator.
	fastRetried bool
}

// maxCrossAttempts bounds initiator re-proposals; past it the instance is
// dropped and the client's retransmission takes over.
const maxCrossAttempts = 64

// xcommitRetain schedules a decided attempt's COMMIT retransmissions.
type xcommitRetain struct {
	env      *types.Envelope
	to       []types.NodeID
	resends  int
	deadline time.Time
}

// maxCommitResends bounds the retransmission schedule; each round doubles
// the reach window while duplicates stay idempotent at the receivers.
const maxCommitResends = 2

func newXCrash(topo *consensus.Topology, cluster types.ClusterID, self types.NodeID,
	table *consensus.ConflictTable, status func() chainStatus,
	validate func(*types.Transaction) bool,
	lockTimeout, retryTimeout time.Duration, maxLeads int, seed int64) *xcrash {
	if maxLeads <= 0 {
		maxLeads = 1
	}
	return &xcrash{
		topo: topo, cluster: cluster, self: self, status: status, validate: validate,
		table: table, maxLeads: maxLeads,
		lockTimeout: lockTimeout, retryTimeout: retryTimeout,
		rng:      rand.New(rand.NewSource(seed)),
		waiting:  make(map[types.Hash]*types.Envelope),
		parkedAt: make(map[types.Hash]time.Time),
		leads:    make(map[types.Hash]*xlead),
		decided:  make(map[types.Hash]bool),
		txs:      make(map[types.Hash][]*types.Transaction),
		recent:   make(map[types.Hash]*xcommitRetain),
		ring:     obs.NewEventRing(0, os.Getenv("SHARPER_TRACE") != ""),
	}
}

func (x *xcrash) Locked() bool { return x.table.Held() }

func (x *xcrash) Waiting() int { return len(x.waiting) }

func (x *xcrash) Pending() int { return len(x.leads) + len(x.waiting) }

// CanInitiate consults the conflict table's lead-admission rule.
func (x *xcrash) CanInitiate(involved types.ClusterSet) bool {
	depth := x.maxLeads
	if depth > crossLeadDepth {
		depth = crossLeadDepth
	}
	return x.table.CanLead(involved, depth)
}

// ActiveLeads counts in-flight leads over exactly this set.
func (x *xcrash) ActiveLeads(involved types.ClusterSet) int {
	return x.table.LeadsFor(involved)
}

// NeedsSlot reports whether an in-flight lead is still waiting to cast its
// initiator vote — the node's scheduler must let the chain drain then.
func (x *xcrash) NeedsSlot() bool {
	for _, lead := range x.leads {
		if lead.needSelfVote && !lead.dormant && !lead.done {
			return true
		}
	}
	return false
}

// backoff returns the jittered, exponentially growing re-propose delay.
func (x *xcrash) backoff(attempts int) time.Duration {
	shift := attempts - 1
	if shift > 2 {
		shift = 2
	}
	base := x.retryTimeout << uint(shift)
	return base + time.Duration(x.rng.Int63n(int64(x.retryTimeout)))
}

// Initiate starts Algorithm 1 for a batch of cross-shard transactions that
// share one involved-cluster set (lines 6–8). The caller guarantees this
// node is the primary of an involved cluster (normally the super primary)
// and has checked CanInitiate.
func (x *xcrash) Initiate(txs []*types.Transaction, now time.Time) []consensus.Outbound {
	involved, ok := batchInvolved(txs)
	if !ok {
		return nil
	}
	digest := types.BatchDigest(txs)
	if x.decided[digest] || x.leads[digest] != nil {
		return nil
	}
	lead := &xlead{start: now, txs: txs, involved: involved, digest: digest,
		votes: consensus.NewHashVoteSet()}
	x.leads[digest] = lead
	x.txs[digest] = txs
	x.table.RegisterLead(digest, involved)
	outs, _ := x.propose(lead, now) // a fresh attempt cannot decide yet
	return outs
}

// propose (re)issues the PROPOSE multicast for a lead instance and casts the
// initiator's own vote if the slot is free (deferring it otherwise).
func (x *xcrash) propose(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	x.nPropose++
	x.tracer.StampDigest(lead.digest, obs.StagePropose, now)
	lead.attempts++
	lead.view++
	lead.dormant = false
	lead.fastRetried = false
	lead.votes = consensus.NewHashVoteSet()
	lead.deadline = now.Add(x.backoff(lead.attempts))
	lead.needSelfVote = true
	lead.waitNoted = false

	st := x.status()
	msg := &types.ConsensusMsg{
		View:       lead.view,
		Digest:     lead.digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head},
		Txs:        lead.txs,
	}
	env := &types.Envelope{Type: types.MsgXPropose, From: x.self, Payload: msg.Encode(nil)}
	outs := []consensus.Outbound{{
		To:  consensus.Others(x.topo.InvolvedNodes(lead.involved), x.self),
		Env: env,
	}}
	o, d := x.castLeadVote(lead, now)
	return append(outs, o...), d
}

// castLeadVote records the initiator's own vote for a lead once the chain is
// drained and the slot vote is grantable; until then the vote stays pending
// (the PROPOSE is already in flight — participants vote meanwhile).
func (x *xcrash) castLeadVote(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if !lead.needSelfVote || lead.dormant || lead.done {
		return nil, nil
	}
	st := x.status()
	if !st.Drained || !x.table.CanVote(lead.digest) {
		if !lead.waitNoted {
			lead.waitNoted = true
			x.table.NoteSelfVoteWait()
		}
		return nil, nil
	}
	x.acquire(lead.digest, lead.involved, st, now)
	x.tracer.StampDigest(lead.digest, obs.StageLockGrant, now)
	x.ring.Recordf("xselfvote", st.Seq+1, lead.digest, "head=%s v=%d", st.Head, lead.view)
	lead.needSelfVote = false
	lead.votes.Add(x.cluster, x.self, consensus.HashVote{
		Key:   consensus.VoteKey{View: lead.view, Digest: lead.digest},
		Prev:  st.Head,
		Valid: validBits(lead.txs, x.validate),
	})
	return x.tryComplete(lead, now)
}

// castSelfVotes retries pending initiator votes in digest order (a
// deterministic tie-break; at most one can take the slot anyway).
func (x *xcrash) castSelfVotes(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if x.table.Held() || !x.status().Drained {
		return nil, nil // no self-vote can be cast; skip the scan
	}
	var pending []types.Hash
	for dg, lead := range x.leads {
		if lead.needSelfVote && !lead.dormant && !lead.done {
			pending = append(pending, dg)
		}
	}
	if len(pending) == 0 {
		return nil, nil
	}
	sort.Slice(pending, func(i, j int) bool {
		return bytes.Compare(pending[i][:], pending[j][:]) < 0
	})
	var outs []consensus.Outbound
	var decs []crossDecision
	for _, dg := range pending {
		if lead, ok := x.leads[dg]; ok {
			o, d := x.castLeadVote(lead, now)
			outs = append(outs, o...)
			decs = append(decs, d...)
		}
	}
	return outs, decs
}

// withdraw invalidates the current attempt and releases everyone's slot
// votes. Bumping lead.view first guarantees no late accept for the old
// attempt can complete a quorum, so releasing the votes cannot fork the
// chain. The lead stays registered (dormant) so its set keeps screening new
// lead admissions until it decides or is dropped.
func (x *xcrash) withdraw(lead *xlead, now time.Time) []consensus.Outbound {
	x.nWithdraw++
	lead.view++
	lead.votes = consensus.NewHashVoteSet()
	lead.dormant = true
	lead.needSelfVote = false
	lead.deadline = now.Add(x.backoff(lead.attempts))
	x.unlock(lead.digest)

	msg := &types.ConsensusMsg{View: lead.view, Digest: lead.digest, Cluster: x.cluster}
	env := &types.Envelope{Type: types.MsgXAbort, From: x.self, Payload: msg.Encode(nil)}
	return []consensus.Outbound{{
		To:  consensus.Others(x.topo.InvolvedNodes(lead.involved), x.self),
		Env: env,
	}}
}

// acquire takes the slot vote for digest (the §3.2 lock), promising the
// current head as the predecessor of the next chain slot.
func (x *xcrash) acquire(digest types.Hash, involved types.ClusterSet, st chainStatus, now time.Time) {
	if !x.table.Held() {
		x.lockedAt = now
	}
	x.table.Acquire(digest, involved, st.Seq+1, st.Head, now.Add(x.lockTimeout))
	if digest != x.lockReplyDigest {
		// A vote for a different attempt invalidates the retained accept.
		x.lockReply, x.lockFrom, x.lockNudged = nil, 0, false
		x.lockReplyDigest = types.Hash{}
	}
}

func (x *xcrash) unlock(digest types.Hash) {
	if x.table.Release(digest) {
		x.lockHold += time.Since(x.lockedAt)
		x.ring.Recordf("xrelease", 0, digest, "")
	}
}

// Step handles PROPOSE (participant), ACCEPT (initiator), COMMIT and ABORT.
func (x *xcrash) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	switch env.Type {
	case types.MsgXPropose:
		return x.onPropose(env, now), nil
	case types.MsgXAccept:
		return x.onAccept(env, now)
	case types.MsgXCommit:
		return x.onCommit(env)
	case types.MsgXAbort:
		return x.onAbort(env, now)
	default:
		return nil, nil
	}
}

// park holds a proposal back until the slot vote frees or the chain drains,
// keeping arrival order for FIFO granting.
func (x *xcrash) park(digest types.Hash, env *types.Envelope, now time.Time) {
	if _, ok := x.parkedAt[digest]; !ok {
		x.parkedAt[digest] = now
	}
	if _, ok := x.waiting[digest]; !ok {
		x.waitOrder = append(x.waitOrder, digest)
	}
	x.waiting[digest] = env
}

// unpark removes a proposal from the waiting set (granted, committed,
// aborted, or decided); waitOrder is compacted lazily by drainWaiting.
func (x *xcrash) unpark(digest types.Hash) {
	delete(x.waiting, digest)
}

// onPropose implements lines 9–11: validate, then answer ACCEPT with our
// cluster's previous-block hash. Voting requires a drained chain and a
// grantable slot vote; otherwise the proposal parks until the vote frees or
// the chain advances.
func (x *xcrash) onPropose(env *types.Envelope, now time.Time) []consensus.Outbound {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil
	}
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(x.cluster) {
		return nil
	}
	digest := types.BatchDigest(m.Txs)
	if digest != m.Digest || x.decided[digest] {
		return nil
	}
	x.txs[digest] = m.Txs
	st := x.status()
	if !st.Drained || !x.table.CanVote(digest) {
		x.park(digest, env, now)
		return nil
	}
	if t, ok := x.parkedAt[digest]; ok {
		x.parkWait += now.Sub(t)
		x.nParks++
		delete(x.parkedAt, digest)
	}
	x.unpark(digest)
	x.nGrant++
	x.acquire(digest, involved, st, now)
	x.ring.Recordf("xvote", st.Seq+1, digest, "head=%s v=%d from=%s", st.Head, m.View, env.From)
	reply := &types.ConsensusMsg{
		View:       m.View,
		Digest:     digest,
		Cluster:    x.cluster,
		PrevHashes: []types.Hash{st.Head}, // h_j, our cluster's head
		// Seq doubles as the per-transaction validity bitmap of the batch.
		Seq: validBits(m.Txs, x.validate),
	}
	renv := &types.Envelope{Type: types.MsgXAccept, From: x.self, Payload: reply.Encode(nil)}
	x.lockReply, x.lockFrom, x.lockNudged = renv, env.From, false
	x.lockReplyDigest = digest
	return []consensus.Outbound{{
		To:  []types.NodeID{env.From},
		Env: renv,
	}}
}

// onAccept implements lines 12–14 at the initiator: collect f+1 matching
// accepts from every involved cluster, then multicast COMMIT with the full
// hash list and decide locally.
func (x *xcrash) onAccept(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	lead, ok := x.leads[m.Digest]
	if !ok || lead.dormant || (!lead.done && m.View != lead.view) {
		if x.decided[m.Digest] {
			// A re-sent accept for a decided attempt means the sender never
			// saw the commit (its lock timer is nudging it); repeat it
			// point-to-point while we still hold the payload.
			if r, ok := x.recent[m.Digest]; ok {
				return []consensus.Outbound{{To: []types.NodeID{env.From}, Env: r.env}}, nil
			}
			return nil, nil // commit already propagated and retired
		}
		// Stale accept for a withdrawn or dropped attempt: release the
		// sender so it does not sit on a dead lock until its timer fires.
		am := &types.ConsensusMsg{View: m.View, Digest: m.Digest, Cluster: x.cluster}
		return []consensus.Outbound{{
			To:  []types.NodeID{env.From},
			Env: &types.Envelope{Type: types.MsgXAbort, From: x.self, Payload: am.Encode(nil)},
		}}, nil
	}
	if lead.done {
		return nil, nil
	}
	senderCluster, ok := x.topo.ClusterOf(env.From)
	if !ok || !lead.involved.Contains(senderCluster) {
		return nil, nil
	}
	lead.votes.Add(senderCluster, env.From, consensus.HashVote{
		Key:   consensus.VoteKey{View: lead.view, Digest: m.Digest},
		Prev:  m.PrevHashes[0],
		Valid: m.Seq,
	})
	return x.tryComplete(lead, now)
}

// tryComplete checks the lead's quorum condition, deciding (and multicasting
// COMMIT) on success or fast-retrying on a provably split vote. It is the
// one completion path shared by participant accepts and the initiator's own
// deferred vote.
func (x *xcrash) tryComplete(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if lead.done || lead.dormant {
		return nil, nil
	}
	key := consensus.VoteKey{View: lead.view, Digest: lead.digest}
	hashes, valid, ok := lead.votes.QuorumAllPrev(lead.involved, key,
		func(c types.ClusterID) int { return x.topo.CrossQuorum(c) })
	if !ok {
		// If some cluster's votes have split across chain heads so that no
		// matching quorum can ever form at this view, re-propose now: the
		// lagging nodes will have converged by the time the new attempt
		// arrives. Participants stay locked on the digest throughout. At
		// most one fast retry per timer window, so persistently split heads
		// fall back to the withdraw/backoff cycle instead of spinning.
		if !lead.fastRetried {
			for _, c := range lead.involved {
				if lead.votes.MatchImpossible(c, key, x.topo.CrossQuorum(c), len(x.topo.Members(c))) {
					out, decs := x.propose(lead, now)
					lead.fastRetried = true
					return out, decs
				}
			}
		}
		return nil, nil
	}
	lead.done = true
	x.nDecide++
	x.tracer.StampDigest(lead.digest, obs.StagePrepared, now)
	x.leadWait += now.Sub(lead.start)
	x.decided[lead.digest] = true
	delete(x.leads, lead.digest)
	x.table.DropLead(lead.digest)
	x.unlock(lead.digest)

	cm := &types.ConsensusMsg{
		View:       lead.view,
		Digest:     lead.digest,
		Cluster:    x.cluster,
		PrevHashes: hashes,
		Txs:        lead.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	to := consensus.Others(x.topo.InvolvedNodes(lead.involved), x.self)
	cenv := &types.Envelope{Type: types.MsgXCommit, From: x.self, Payload: cm.Encode(nil)}
	// Retain the commit for retransmission: participants are holding their
	// chains locked for it, and a lost or slow copy must not strand a
	// cluster without the decided block.
	x.recent[lead.digest] = &xcommitRetain{
		env: cenv, to: to, deadline: now.Add(x.lockTimeout / 4),
	}
	out := []consensus.Outbound{{To: to, Env: cenv}}
	dec := []crossDecision{{Txs: lead.txs, Digest: lead.digest, Hashes: hashes, Valid: valid}}
	return out, dec
}

// onCommit implements lines 15–16 at participants: execute and append.
func (x *xcrash) onCommit(env *types.Envelope) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || x.decided[m.Digest] {
		return nil, nil
	}
	txs := m.Txs
	if len(txs) == 0 {
		txs = x.txs[m.Digest]
	}
	involved, ok := batchInvolved(txs)
	if !ok || !involved.Contains(x.cluster) {
		return nil, nil
	}
	if len(m.PrevHashes) != len(involved) {
		return nil, nil
	}
	x.decided[m.Digest] = true
	x.unpark(m.Digest)
	x.unlock(m.Digest)
	return nil, []crossDecision{{Txs: txs, Digest: m.Digest, Hashes: m.PrevHashes, Valid: m.Seq}}
}

// onAbort releases the slot vote the aborted attempt held at this node and
// drops any parked copy of the proposal (the initiator re-sends a fresh
// one when it retries).
func (x *xcrash) onAbort(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || x.decided[m.Digest] {
		return nil, nil
	}
	x.unpark(m.Digest)
	x.unlock(m.Digest)
	out, decs := x.castSelfVotes(now)
	o2, d2 := x.drainWaiting(now)
	return append(out, o2...), append(decs, d2...)
}

// OnChainAdvanced retries pending initiator votes and parked proposals now
// that the chain moved. Self-votes go first: an in-flight lead waiting for
// its own cluster's slot already holds (or is acquiring) higher clusters'
// slots, so granting its home lock before any foreign parked proposal keeps
// every attempt's lock acquisition lowest-cluster-first — the ordering that
// keeps the cross-shard waits-for graph acyclic.
func (x *xcrash) OnChainAdvanced(now time.Time) ([]consensus.Outbound, []crossDecision) {
	outs, decs := x.castSelfVotes(now)
	o2, d2 := x.drainWaiting(now)
	return append(outs, o2...), append(decs, d2...)
}

// drainWaiting re-steps parked proposals in arrival order; at most one
// acquires the slot vote, the rest re-park. FIFO order keeps pipelined
// same-set attempts from one initiator granting in propose order at every
// participant.
func (x *xcrash) drainWaiting(now time.Time) ([]consensus.Outbound, []crossDecision) {
	if len(x.waiting) == 0 || x.table.Held() {
		x.compactWaitOrder()
		return nil, nil
	}
	if !x.status().Drained {
		// No parked proposal can be granted on an undrained chain; skip the
		// rescan (each one re-decodes full batch payloads) until the intra
		// pipeline lands.
		return nil, nil
	}
	pending := make([]types.Hash, len(x.waitOrder))
	copy(pending, x.waitOrder)
	var outs []consensus.Outbound
	for _, dg := range pending {
		env, ok := x.waiting[dg]
		if !ok {
			continue // unpark happened; compacted below
		}
		outs = append(outs, x.onPropose(env, now)...)
		if x.table.Held() {
			break
		}
	}
	x.compactWaitOrder()
	return outs, nil
}

// compactWaitOrder drops unparked digests once they dominate the order list.
func (x *xcrash) compactWaitOrder() {
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

// Tick expires slot votes (crashed-initiator fallback) and drives the
// initiator's withdraw/backoff/re-propose cycle.
func (x *xcrash) Tick(now time.Time) ([]consensus.Outbound, []crossDecision) {
	var outs []consensus.Outbound
	if dl, held := x.table.HolderDeadline(); held && !x.lockNudged && x.lockReply != nil &&
		x.table.Holds(x.lockReplyDigest) && now.After(dl.Add(-x.lockTimeout/4)) {
		// The slot vote has sat un-released for most of its window: re-send
		// the accept so a live initiator repeats its commit (or abort) before
		// this node expires unilaterally and lets its chain move on.
		x.lockNudged = true
		outs = append(outs, consensus.Outbound{To: []types.NodeID{x.lockFrom}, Env: x.lockReply})
	}
	if d, ok := x.table.ExpireHolder(now); ok {
		// The initiator died without committing or aborting; give up.
		x.nLockExpire++
		x.lockHold += time.Since(x.lockedAt)
		x.ring.Recordf("xexpire", 0, d, "")
	}
	for digest, r := range x.recent {
		if !now.After(r.deadline) {
			continue
		}
		if r.resends >= maxCommitResends {
			delete(x.recent, digest)
			continue
		}
		r.resends++
		r.deadline = now.Add(x.lockTimeout / 4)
		outs = append(outs, consensus.Outbound{To: r.to, Env: r.env})
	}
	var decs []crossDecision
	for digest, lead := range x.leads {
		if lead.done || !now.After(lead.deadline) {
			continue
		}
		if lead.dormant {
			// Re-propose only when this node could actually vote again:
			// between withdraw and re-propose the slot may have been granted
			// to a parked proposal.
			if x.table.CanVote(lead.digest) && x.status().Drained {
				o, d := x.propose(lead, now)
				outs = append(outs, o...)
				decs = append(decs, d...)
			} else {
				lead.deadline = now.Add(x.retryTimeout)
			}
			continue
		}
		if lead.attempts >= maxCrossAttempts {
			outs = append(outs, x.withdraw(lead, now)...)
			delete(x.leads, digest)
			x.table.DropLead(digest)
			continue
		}
		outs = append(outs, x.withdraw(lead, now)...)
		// Same-set followers share the conflict that stalled this attempt
		// AND must not keep remote slot votes while the home slot could go
		// to a foreign attempt: withdraw them together.
		for dg2, l2 := range x.leads {
			if dg2 != digest && !l2.dormant && !l2.done && l2.involved.Equal(lead.involved) {
				outs = append(outs, x.withdraw(l2, now)...)
			}
		}
	}
	o, d := x.castSelfVotes(now)
	outs, decs = append(outs, o...), append(decs, d...)
	o2, d2 := x.drainWaiting(now)
	return append(outs, o2...), append(decs, d2...)
}
