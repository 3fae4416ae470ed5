package core

import (
	"encoding/binary"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// byzVotes is Algorithm 2's vote policy (§3.3, Byzantine nodes). The
// per-cluster quorum grows from f+1 to 2f+1 and the accept and commit
// phases are decentralized: every node of every involved cluster multicasts
// its signed ACCEPT and COMMIT to all nodes of all involved clusters, so no
// single node is trusted to tally votes. Because votes are tallied by
// everyone, two extra guards protect against stale attempts committing
// after a release:
//   - a node multicasts COMMIT only while it still holds the slot vote for
//     the digest and the agreed hash for its own cluster still equals its
//     chain head, and
//   - an ABORT is honored only from the attempt's proposer and never
//     releases a node that has already entered the commit phase (its
//     cluster may be pinned by the in-flight decision).
type byzVotes struct {
	*coordinator
	verify crypto.Verifier

	instances map[types.Hash]*xinst
}

// xinst is per-digest participant state.
type xinst struct {
	txs        []*types.Transaction
	involved   types.ClusterSet
	proposer   types.NodeID
	view       uint64
	accepts    *consensus.HashVoteSet
	commits    *consensus.VoteSet
	sentAccept bool
	sentCommit bool
	// keyHashes remembers the hash list behind every commit key seen, so
	// the decision adopts whichever key reaches quorum.
	keyHashes map[consensus.VoteKey]keyedHashes
	// committedHashes pins the one hash list this node has endorsed with a
	// COMMIT; re-commits must match it, which keeps two different commit
	// quorums for the same digest from ever co-existing.
	committedHashes []types.Hash
	commitEnv       *types.Envelope // stored commit for re-broadcast
	// touched is when a message for the digest last reached the instance;
	// tick drops instances idle for instanceIdle lock timeouts.
	touched time.Time
}

// instanceIdle is how many lock timeouts an instance that holds nothing
// may sit untouched before tick drops it. A live initiator re-proposes
// within its backoff, well inside one lock timeout, so an instance idle
// this long belongs to a lead that was dropped after maxCrossAttempts or
// whose initiator died, and keeping it would retain its batch forever.
const instanceIdle = 4

// keyedHashes pairs a commit key's hash list with its validity bitmap.
type keyedHashes struct {
	hashes []types.Hash
	valid  uint64
}

// slotOf returns the index of cluster c in the instance's involved set.
func (inst *xinst) slotOf(c types.ClusterID) int {
	for i, ic := range inst.involved {
		if ic == c {
			return i
		}
	}
	return -1
}

func (p *byzVotes) getInstance(digest types.Hash, now time.Time) *xinst {
	inst, ok := p.instances[digest]
	if !ok {
		inst = &xinst{
			accepts:   consensus.NewHashVoteSet(),
			commits:   consensus.NewVoteSet(),
			keyHashes: make(map[consensus.VoteKey]keyedHashes),
		}
		p.instances[digest] = inst
	}
	inst.touched = now
	return inst
}

// step checks the sender's signature (§2.1) and dispatches.
func (p *byzVotes) step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if ok, known := env.Auth(); known {
		if !ok {
			return nil, nil // verdict precomputed by the parallel verification pool
		}
	} else if !p.verify.Verify(env.From, env.Payload, env.Sig) {
		return nil, nil
	}
	switch env.Type {
	case types.MsgXPropose:
		return p.onPropose(env, now), nil
	case types.MsgXAccept:
		return p.onAccept(env, now)
	case types.MsgXCommit:
		return p.onCommit(env, now)
	case types.MsgXAbort:
		return p.onAbort(env, now)
	default:
		return nil, nil
	}
}

// newAttempt joins the accept phase at the lead's new view ourselves,
// unless this node is pinned to a commit.
func (p *byzVotes) newAttempt(lead *xlead, now time.Time) {
	inst := p.getInstance(lead.digest, now)
	inst.txs = lead.txs
	inst.involved = lead.involved
	inst.proposer = p.self
	if lead.view > inst.view && !inst.sentCommit {
		inst.view = lead.view
		inst.sentAccept = false
	}
}

func (p *byzVotes) votedElsewhere(lead *xlead) bool {
	inst := p.instances[lead.digest]
	return inst != nil && (inst.sentAccept || inst.sentCommit)
}

func (p *byzVotes) selfVote(lead *xlead, st chainStatus) []consensus.Outbound {
	return p.sendAccept(p.instances[lead.digest], lead.digest, st)
}

func (p *byzVotes) tally(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if inst := p.instances[lead.digest]; inst != nil && inst.sentAccept {
		return p.maybeCommit(inst, lead.digest, now)
	}
	return nil, nil
}

// release frees the initiator's own slot vote under the same rule as
// everyone else: not once it entered the commit phase.
func (p *byzVotes) release(lead *xlead, now time.Time) {
	if inst := p.instances[lead.digest]; inst != nil && !inst.sentCommit {
		p.unlock(lead.digest, now)
	}
}

// forget drops a retired lead's instance unless this node is pinned to its
// commit; a pinned one goes once maybeReleaseDeadCommit frees it and it
// sits idle.
func (p *byzVotes) forget(digest types.Hash) {
	if inst := p.instances[digest]; inst != nil && !inst.sentCommit {
		delete(p.instances, digest)
	}
}

// tick expires the slot vote, releases commits whose agreed parent the
// chain has moved past, and drops idle instances that hold nothing here:
// no slot vote, no commit pin, no lead and no parked proposal.
func (p *byzVotes) tick(now time.Time) []consensus.Outbound {
	p.expireLock(now)
	st := p.status()
	idle := instanceIdle * p.lockTimeout
	for digest, inst := range p.instances {
		if inst.sentCommit {
			p.maybeReleaseDeadCommit(inst, digest, st, now)
		}
		if inst.sentCommit || now.Sub(inst.touched) < idle || p.table.Holds(digest) || p.leads[digest] != nil {
			continue
		}
		if _, parked := p.waiting[digest]; !parked {
			delete(p.instances, digest)
		}
	}
	return nil
}

// onPropose (lines 9–11): validate and multicast a signed ACCEPT carrying
// h_j to every node of every involved cluster.
func (p *byzVotes) onPropose(env *types.Envelope, now time.Time) []consensus.Outbound {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil {
		return nil
	}
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(p.cluster) {
		return nil
	}
	digest := types.BatchDigest(m.Txs)
	if digest != m.Digest || p.decided[digest] {
		return nil
	}
	// The proposer must belong to an involved cluster; a node outside the
	// involved set has no business initiating (malicious traffic).
	pc, ok := p.topo.ClusterOf(env.From)
	if !ok || !involved.Contains(pc) {
		return nil
	}
	st := p.status()
	inst := p.getInstance(digest, now)
	inst.txs = m.Txs
	inst.involved = involved
	if inst.proposer == 0 {
		inst.proposer = env.From
	}
	if !p.grantable(digest, env, st, now) {
		return nil
	}
	p.maybeReleaseDeadCommit(inst, digest, st, now)
	if inst.sentCommit {
		// We are pinned to a commit whose parent is still our head: help
		// the new attempt converge to the same hash list by re-voting our
		// pinned h and re-broadcasting our stored commit.
		var out []consensus.Outbound
		if m.View > inst.view {
			inst.view = m.View
			inst.sentAccept = false
			out = p.sendAccept(inst, digest, st)
		}
		if inst.commitEnv != nil {
			out = append(out, p.multicast(inst.involved, inst.commitEnv))
		}
		return out
	}
	if m.View > inst.view {
		// New attempt by the initiator: vote again at the higher view.
		inst.view = m.View
		inst.sentAccept = false
	}
	if inst.sentAccept {
		return nil
	}
	p.nGrant++
	p.acquire(digest, involved, st, now)
	p.ring.Recordf("xvote", st.Seq+1, digest, "head=%s v=%d from=%s", st.Head, m.View, env.From)
	return p.sendAccept(inst, digest, st)
}

// maybeReleaseDeadCommit clears a pinned commit whose agreed parent for our
// cluster no longer matches our chain head. Heads only move forward, so no
// correct node of our cluster can ever endorse that hash list again: the
// old attempt is dead and holding its slot vote would wedge the node.
func (p *byzVotes) maybeReleaseDeadCommit(inst *xinst, digest types.Hash, st chainStatus, now time.Time) {
	if !inst.sentCommit {
		return
	}
	slot := inst.slotOf(p.cluster)
	if slot < 0 || slot >= len(inst.committedHashes) || inst.committedHashes[slot] == st.Head {
		return
	}
	inst.sentCommit = false
	inst.sentAccept = false
	inst.committedHashes = nil
	inst.commitEnv = nil
	p.unlock(digest, now)
}

func (p *byzVotes) sendAccept(inst *xinst, digest types.Hash, st chainStatus) []consensus.Outbound {
	if inst.sentAccept {
		return nil
	}
	inst.sentAccept = true
	valid := validBits(inst.txs, p.validate)
	inst.accepts.Add(p.cluster, p.self, consensus.HashVote{
		Key:   consensus.VoteKey{View: inst.view, Digest: digest},
		Prev:  st.Head,
		Valid: valid,
	})
	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     digest,
		Cluster:    p.cluster,
		PrevHashes: []types.Hash{st.Head},
		Seq:        valid, // per-transaction validity bitmap
	}
	return []consensus.Outbound{p.multicast(inst.involved, p.envelope(types.MsgXAccept, m))}
}

// onAccept (lines 12–14): on 2f+1 matching accepts from every involved
// cluster, assemble the hash list and multicast a signed COMMIT.
func (p *byzVotes) onAccept(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.PrevHashes) != 1 || p.decided[m.Digest] {
		return nil, nil
	}
	senderCluster, ok := p.topo.ClusterOf(env.From)
	if !ok {
		return nil, nil
	}
	inst := p.getInstance(m.Digest, now)
	inst.accepts.Add(senderCluster, env.From, consensus.HashVote{
		Key:   consensus.VoteKey{View: m.View, Digest: m.Digest},
		Prev:  m.PrevHashes[0],
		Valid: m.Seq,
	})
	return p.maybeCommit(inst, m.Digest, now)
}

func (p *byzVotes) maybeCommit(inst *xinst, digest types.Hash, now time.Time) ([]consensus.Outbound, []crossDecision) {
	// Guard: only nodes still holding the slot vote may vote in the commit
	// phase, so a withdrawn attempt can never resurrect after its votes were
	// released.
	if len(inst.txs) == 0 || inst.sentCommit || !p.table.Holds(digest) {
		return nil, p.maybeDecide(inst, digest, now)
	}
	acceptKey := consensus.VoteKey{View: inst.view, Digest: digest}
	hashes, valid, ok := inst.accepts.QuorumAllPrev(inst.involved, acceptKey, p.topo.CrossQuorum)
	if !ok {
		// Vote split across chain heads: if we are the initiator, launch
		// the next attempt immediately.
		if lead, isLead := p.leads[digest]; isLead && !lead.dormant && !lead.fastRetried {
			for _, c := range inst.involved {
				if inst.accepts.MatchImpossible(c, acceptKey, p.topo.CrossQuorum(c), len(p.topo.Members(c))) {
					return p.retrySplit(lead, now), nil
				}
			}
		}
		return nil, nil
	}
	// Guard: the agreed parent for our own cluster must still be our head.
	mySlot := inst.slotOf(p.cluster)
	if mySlot < 0 || hashes[mySlot] != p.status().Head {
		return nil, nil
	}
	inst.sentCommit = true
	p.tracer.StampDigest(digest, obs.StagePrepared, now)
	p.ring.Recordf("xcommit", 0, digest, "v=%d", inst.view)
	inst.committedHashes = hashes
	key := commitKey(digest, hashes, valid)
	inst.keyHashes[key] = keyedHashes{hashes: hashes, valid: valid}
	inst.commits.Add(p.cluster, p.self, key)

	m := &types.ConsensusMsg{
		View:       inst.view,
		Digest:     digest,
		Cluster:    p.cluster,
		PrevHashes: hashes,
		Txs:        inst.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	inst.commitEnv = p.envelope(types.MsgXCommit, m)
	return []consensus.Outbound{p.multicast(inst.involved, inst.commitEnv)}, p.maybeDecide(inst, digest, now)
}

// onCommit (lines 15–16): on 2f+1 matching commits from every involved
// cluster, execute and append.
func (p *byzVotes) onCommit(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || p.decided[m.Digest] {
		return nil, nil
	}
	senderCluster, ok := p.topo.ClusterOf(env.From)
	if !ok {
		return nil, nil
	}
	inst := p.getInstance(m.Digest, now)
	if len(inst.txs) == 0 && len(m.Txs) > 0 && types.BatchDigest(m.Txs) == m.Digest {
		if involved, ok := batchInvolved(m.Txs); ok {
			inst.txs = m.Txs
			inst.involved = involved
		}
	}
	key := commitKey(m.Digest, m.PrevHashes, m.Seq)
	inst.keyHashes[key] = keyedHashes{hashes: m.PrevHashes, valid: m.Seq}
	inst.commits.Add(senderCluster, env.From, key)
	return nil, p.maybeDecide(inst, m.Digest, now)
}

func (p *byzVotes) maybeDecide(inst *xinst, digest types.Hash, now time.Time) []crossDecision {
	if len(inst.txs) == 0 || p.decided[digest] {
		return nil
	}
	for key, kh := range inst.keyHashes {
		if !inst.commits.QuorumAll(inst.involved, key, p.topo.CrossQuorum) {
			continue
		}
		p.decide(digest, now)
		delete(p.instances, digest)
		return []crossDecision{{Txs: inst.txs, Digest: digest, Hashes: kh.hashes, Valid: kh.valid}}
	}
	return nil
}

// onAbort releases the slot vote held for the digest, unless this node
// already entered the commit phase (the decision may be in flight
// cluster-wide). Only the attempt's proposer is honored.
func (p *byzVotes) onAbort(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || p.decided[m.Digest] {
		return nil, nil
	}
	inst, ok := p.instances[m.Digest]
	if !ok || inst.proposer != env.From || inst.sentCommit {
		return nil, nil
	}
	p.unpark(m.Digest, now)
	p.unlock(m.Digest, now)
	return p.OnChainAdvanced(now)
}

// commitKey folds the agreed hash list and validity bitmap into the vote
// key so only commits endorsing identical outcomes match.
func commitKey(digest types.Hash, hashes []types.Hash, valid uint64) consensus.VoteKey {
	buf := make([]byte, 0, 32*(len(hashes)+1)+8)
	buf = append(buf, digest[:]...)
	for _, h := range hashes {
		buf = append(buf, h[:]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, valid)
	return consensus.VoteKey{Digest: types.HashBytes(buf)}
}
