package core

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// crashVotes is Algorithm 1's vote policy (§3.2, crash-only nodes): each
// participant answers PROPOSE with an ACCEPT sent point-to-point to the
// initiator, which alone tallies f+1 matching accepts per involved cluster,
// assembles the hash list and multicasts COMMIT. Envelopes are unsigned.
type crashVotes struct {
	*coordinator

	// lockReply/lockFrom let a participant whose slot vote has sat
	// un-released for most of its window re-send the accept to the
	// initiator: a decided attempt answers with the (possibly lost) commit,
	// a withdrawn one with an abort — either beats expiring unilaterally and
	// diverging. lockReplyDigest names the vote the reply belongs to.
	lockReply       *types.Envelope
	lockFrom        types.NodeID
	lockNudged      bool
	lockReplyDigest types.Hash

	// votedBy and votedView name the attempt the held slot vote went to
	// (this node itself for an initiator's own vote). Only that attempt's
	// initiator, at that view or later, may abort it: an ABORT answering an
	// older attempt's accept, or one from another initiator of the same
	// batch, would free a vote the current attempt may already have
	// counted, and the freed head could then be voted a second time.
	votedBy   types.NodeID
	votedView uint64

	// recent retains decided attempts' COMMIT multicasts for a bounded
	// retransmission schedule: a commit lost or badly delayed on its way to
	// a participant cluster would otherwise leave that cluster's view
	// permanently missing the block (no participant can fetch a decision it
	// never saw, and intra-cluster chain sync cannot heal a cluster where
	// nobody has it). Kept in decide order so retransmissions go out in the
	// same order on every run.
	recent []*xcommitRetain
}

// xcommitRetain schedules a decided attempt's COMMIT retransmissions.
type xcommitRetain struct {
	digest   types.Hash
	env      *types.Envelope
	to       []types.NodeID
	resends  int
	deadline time.Time
}

// maxCommitResends bounds the retransmission schedule; each round doubles
// the reach window while duplicates stay idempotent at the receivers.
const maxCommitResends = 2

func (p *crashVotes) step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
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

func (p *crashVotes) newAttempt(lead *xlead, _ time.Time) { lead.votes = consensus.NewHashVoteSet() }

// forget has nothing to drop: the accept tally lives on the lead.
func (p *crashVotes) forget(types.Hash) {}

func (p *crashVotes) votedElsewhere(*xlead) bool { return false }

func (p *crashVotes) selfVote(lead *xlead, st chainStatus) []consensus.Outbound {
	p.forgetReply(lead.digest)
	p.votedBy, p.votedView = p.self, lead.view
	lead.votes.Add(p.cluster, p.self, consensus.HashVote{
		Key:   consensus.VoteKey{View: lead.view, Digest: lead.digest},
		Prev:  st.Head,
		Valid: validBits(lead.txs, p.validate),
	})
	return nil
}

func (p *crashVotes) tally(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	return p.tryComplete(lead, now)
}

// release bumps the view before the ABORT goes out, so no late accept for
// the withdrawn attempt can complete a quorum and releasing the votes
// cannot fork the chain.
func (p *crashVotes) release(lead *xlead, now time.Time) {
	lead.view++
	lead.votes = consensus.NewHashVoteSet()
	p.unlock(lead.digest, now)
}

// forgetReply drops the retained accept once the slot vote goes to a
// different attempt.
func (p *crashVotes) forgetReply(digest types.Hash) {
	if digest != p.lockReplyDigest {
		p.lockReply, p.lockFrom, p.lockNudged = nil, 0, false
		p.lockReplyDigest = types.Hash{}
	}
}

// onPropose implements lines 9–11: validate, then answer ACCEPT with our
// cluster's previous-block hash. Voting requires a drained chain and a
// grantable slot vote; otherwise the proposal parks until the vote frees or
// the chain advances.
func (p *crashVotes) onPropose(env *types.Envelope, now time.Time) []consensus.Outbound {
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
	st := p.status()
	if !p.grantable(digest, env, st, now) {
		return nil
	}
	p.nGrant++
	p.acquire(digest, involved, st, now)
	p.ring.Recordf("xvote", st.Seq+1, digest, "head=%s v=%d from=%s", st.Head, m.View, env.From)
	reply := &types.ConsensusMsg{
		View:       m.View,
		Digest:     digest,
		Cluster:    p.cluster,
		PrevHashes: []types.Hash{st.Head}, // h_j, our cluster's head
		// Seq doubles as the per-transaction validity bitmap of the batch.
		Seq: validBits(m.Txs, p.validate),
	}
	renv := p.envelope(types.MsgXAccept, reply)
	p.lockReply, p.lockFrom, p.lockNudged = renv, env.From, false
	p.lockReplyDigest = digest
	p.votedBy, p.votedView = env.From, m.View
	return []consensus.Outbound{{To: []types.NodeID{env.From}, Env: renv}}
}

// onAccept implements lines 12–14 at the initiator: collect f+1 matching
// accepts from every involved cluster, then multicast COMMIT with the full
// hash list and decide locally.
func (p *crashVotes) onAccept(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	lead, ok := p.leads[m.Digest]
	if !ok || lead.dormant || m.View != lead.view {
		if p.decided[m.Digest] {
			// A re-sent accept for a decided attempt means the sender never
			// saw the commit (its lock timer is nudging it); repeat it
			// point-to-point while we still hold the payload.
			for _, r := range p.recent {
				if r.digest == m.Digest {
					return []consensus.Outbound{{To: []types.NodeID{env.From}, Env: r.env}}, nil
				}
			}
			return nil, nil // commit already propagated and retired
		}
		// Stale accept for a withdrawn or dropped attempt: release the
		// sender so it does not sit on a dead lock until its timer fires.
		am := &types.ConsensusMsg{View: m.View, Digest: m.Digest, Cluster: p.cluster}
		return []consensus.Outbound{{To: []types.NodeID{env.From}, Env: p.envelope(types.MsgXAbort, am)}}, nil
	}
	senderCluster, ok := p.topo.ClusterOf(env.From)
	if !ok || !lead.involved.Contains(senderCluster) {
		return nil, nil
	}
	lead.votes.Add(senderCluster, env.From, consensus.HashVote{
		Key:   consensus.VoteKey{View: lead.view, Digest: m.Digest},
		Prev:  m.PrevHashes[0],
		Valid: m.Seq,
	})
	return p.tryComplete(lead, now)
}

// tryComplete checks the lead's quorum condition, deciding (and multicasting
// COMMIT) on success or fast-retrying on a provably split vote. It is the
// one completion path shared by participant accepts and the initiator's own
// deferred vote.
func (p *crashVotes) tryComplete(lead *xlead, now time.Time) ([]consensus.Outbound, []crossDecision) {
	if lead.dormant {
		return nil, nil
	}
	key := consensus.VoteKey{View: lead.view, Digest: lead.digest}
	hashes, valid, ok := lead.votes.QuorumAllPrev(lead.involved, key, p.topo.CrossQuorum)
	if !ok {
		// Participants stay locked on the digest throughout a fast retry.
		if !lead.fastRetried {
			for _, c := range lead.involved {
				if lead.votes.MatchImpossible(c, key, p.topo.CrossQuorum(c), len(p.topo.Members(c))) {
					return p.retrySplit(lead, now), nil
				}
			}
		}
		return nil, nil
	}
	p.tracer.StampDigest(lead.digest, obs.StagePrepared, now)
	p.decide(lead.digest, now)

	cm := &types.ConsensusMsg{
		View:       lead.view,
		Digest:     lead.digest,
		Cluster:    p.cluster,
		PrevHashes: hashes,
		Txs:        lead.txs,
		Seq:        valid, // aggregated validity bitmap
	}
	out := p.multicast(lead.involved, p.envelope(types.MsgXCommit, cm))
	// Retain the commit for retransmission: participants are holding their
	// chains locked for it, and a lost or slow copy must not strand a
	// cluster without the decided block.
	p.recent = append(p.recent, &xcommitRetain{digest: lead.digest, env: out.Env, to: out.To,
		deadline: now.Add(p.lockTimeout / 4)})
	dec := []crossDecision{{Txs: lead.txs, Digest: lead.digest, Hashes: hashes, Valid: valid}}
	return []consensus.Outbound{out}, dec
}

// onCommit implements lines 15–16 at participants: execute and append.
func (p *crashVotes) onCommit(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || p.decided[m.Digest] {
		return nil, nil
	}
	involved, ok := batchInvolved(m.Txs)
	if !ok || !involved.Contains(p.cluster) || len(m.PrevHashes) != len(involved) {
		return nil, nil
	}
	p.decide(m.Digest, now)
	return nil, []crossDecision{{Txs: m.Txs, Digest: m.Digest, Hashes: m.PrevHashes, Valid: m.Seq}}
}

// onAbort releases the slot vote the aborted attempt held at this node and
// drops any parked copy of the proposal (the initiator re-sends a fresh
// one when it retries).
func (p *crashVotes) onAbort(env *types.Envelope, now time.Time) ([]consensus.Outbound, []crossDecision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || p.decided[m.Digest] {
		return nil, nil
	}
	if p.table.Holds(m.Digest) && (env.From != p.votedBy || m.View < p.votedView) {
		return nil, nil // not the attempt this node's vote went to
	}
	p.unpark(m.Digest, now)
	p.unlock(m.Digest, now)
	return p.OnChainAdvanced(now)
}

// tick nudges a long-held slot vote's initiator (before the expiry can fire)
// and retransmits recent commits.
func (p *crashVotes) tick(now time.Time) []consensus.Outbound {
	var outs []consensus.Outbound
	if dl, held := p.table.HolderDeadline(); held && !p.lockNudged && p.lockReply != nil &&
		p.table.Holds(p.lockReplyDigest) && now.After(dl.Add(-p.lockTimeout/4)) {
		// The slot vote has sat un-released for most of its window: re-send
		// the accept so a live initiator repeats its commit (or abort) before
		// this node expires unilaterally and lets its chain move on.
		p.lockNudged = true
		outs = append(outs, consensus.Outbound{To: []types.NodeID{p.lockFrom}, Env: p.lockReply})
	}
	p.expireLock(now)
	kept := p.recent[:0]
	for _, r := range p.recent {
		if now.After(r.deadline) {
			if r.resends >= maxCommitResends {
				continue
			}
			r.resends++
			r.deadline = now.Add(p.lockTimeout / 4)
			outs = append(outs, consensus.Outbound{To: r.to, Env: r.env})
		}
		kept = append(kept, r)
	}
	clear(p.recent[len(kept):])
	p.recent = kept
	return outs
}
