// Package pbft implements the intra-shard Byzantine-fault-tolerant
// consensus of §3.1 (Fig. 3b): PBFT's normal-case agreement over 3f+1 nodes
// (pre-prepare, prepare with 2f matching votes, commit with 2f+1 matching
// votes) plus the timeout-driven view change that deposes a faulty primary.
// Messages are signed and verified per §2.1.
//
// Like the Paxos engine, this is a pure state machine: envelopes and ticks
// in, outbound messages and ordered decisions out. The slot, view and
// recovery machinery both engines share lives in consensus.Log; this
// package keeps the PBFT messages, quorums, signatures and certificates.
package pbft

import (
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/obs"
	"sharper/internal/types"
)

// Engine is one node's PBFT state for one cluster.
type Engine struct {
	*consensus.Log[votes, *votes]
	verify crypto.Verifier
}

// votes is the per-slot PBFT vote record.
type votes struct {
	prepares map[types.NodeID]types.Hash
	commits  map[types.NodeID]types.Hash
	// voteSigs keeps each node's signature over its prepare/commit payload
	// (one canonical encoding), so a view change can carry a verifiable
	// prepared certificate instead of an unproven claim.
	voteSigs   map[types.NodeID][]byte
	sentPrep   bool
	sentCommit bool
}

func (v *votes) Reset() {
	*v = votes{
		prepares: make(map[types.NodeID]types.Hash),
		commits:  make(map[types.NodeID]types.Hash),
		voteSigs: make(map[types.NodeID][]byte),
	}
}

func (v *votes) Vote(n types.NodeID, digest types.Hash, sig []byte) {
	v.prepares[n] = digest
	v.voteSigs[n] = sig
}

// Proof assembles the certificate for digest: every recorded prepare/commit
// vote matching it, with its signature.
func (v *votes) Proof(digest types.Hash) []types.VoteProof {
	seen := make(map[types.NodeID]bool)
	var proof []types.VoteProof
	add := func(votes map[types.NodeID]types.Hash) {
		for id, d := range votes {
			if d == digest && !seen[id] {
				seen[id] = true
				proof = append(proof, types.VoteProof{Node: id, Sig: v.voteSigs[id]})
			}
		}
	}
	add(v.prepares)
	add(v.commits)
	return proof
}

// Bound reports a full commit certificate: a bodyless slot holding one is
// known bound even before the pre-prepare arrives.
func (v *votes) Bound(quorum int) bool {
	counts := make(map[types.Hash]int)
	for _, d := range v.commits {
		counts[d]++
		if counts[d] >= quorum {
			return true
		}
	}
	return false
}

// Config parametrizes an Engine.
type Config struct {
	Topology *consensus.Topology
	Cluster  types.ClusterID
	Self     types.NodeID
	Signer   crypto.Signer
	Verifier crypto.Verifier
	Timeout  time.Duration
	// Persist, when non-nil, is the stable-storage hook for acceptor state
	// (persist-before-ack; see consensus.Persister).
	Persist consensus.Persister
	// Reserved, when non-nil, reports whether the node's cross-shard engine
	// holds this node's vote for the given chain slot (§3.2; see
	// paxos.Config.Reserved). Pre-prepares at a reserved slot park until
	// the reservation clears instead of drawing a prepare vote.
	Reserved func(seq uint64) bool
	// Obs, when non-nil, receives engine health metrics (view changes,
	// straggler drops, live instance count).
	Obs *obs.EngineMetrics
	// OnPrepared, when non-nil, fires when a proposal this primary launched
	// reaches its prepared certificate (per-transaction lifecycle tracing).
	OnPrepared func(seq uint64)
}

// New creates an engine at view 0 with the genesis head.
func New(cfg Config, genesis types.Hash) *Engine {
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.Signer == nil {
		cfg.Signer = crypto.NoopSigner{}
	}
	if cfg.Verifier == nil {
		cfg.Verifier = crypto.NoopSigner{}
	}
	e := &Engine{verify: cfg.Verifier}
	e.Log = consensus.NewLog[votes](consensus.LogConfig{
		Topology: cfg.Topology, Cluster: cfg.Cluster, Self: cfg.Self, Timeout: cfg.Timeout,
		Persist: cfg.Persist, Reserved: cfg.Reserved, Obs: cfg.Obs, OnPrepared: cfg.OnPrepared,
		Signer: cfg.Signer, CertQuorum: 2*cfg.Topology.F(cfg.Cluster) + 1, FirstValueWins: true,
		Replay: e.onPrePrepare, Repropose: e.Propose,
	}, genesis)
	return e
}

// quorum is PBFT's 2f+1 of 3f+1.
func (e *Engine) quorum() int { return 2*e.Topo.F(e.Cluster) + 1 }

// authentic checks the envelope's protocol-level signature, preferring the
// verdict the parallel verification pool already computed (see
// crypto.VerifyPool); envelopes stepped in directly (tests, replay paths)
// carry no verdict and are verified inline.
func (e *Engine) authentic(env *types.Envelope) bool {
	if ok, known := env.Auth(); known {
		return ok
	}
	return e.verify.Verify(env.From, env.Payload, env.Sig)
}

// Propose starts consensus on a batch of transactions; primary only. The
// whole batch occupies one consensus instance and one block, and the digest
// the cluster votes on covers every transaction in the batch.
func (e *Engine) Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64) {
	seq, s := e.Open(txs, now)
	if s == nil {
		return nil, 0
	}
	msg := &types.ConsensusMsg{
		View: s.View, Seq: seq, Digest: s.Digest, Cluster: e.Cluster,
		PrevHashes: s.Block.Parents, Txs: txs,
	}
	payload := msg.Encode(nil)
	out := []consensus.Outbound{{
		To:  e.Peers(),
		Env: &types.Envelope{Type: types.MsgPrePrepare, From: e.Self, Payload: payload, Sig: e.Sign(payload)},
	}}
	// The primary's own prepare vote is broadcast like everyone else's.
	out = append(out, e.votePrepare(s, seq)...)
	e.ReportSlots()
	return out, seq
}

// Step consumes one protocol message.
func (e *Engine) Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	outs, decs := e.step(env, now)
	e.ReportSlots()
	return outs, decs
}

func (e *Engine) step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	if !e.authentic(env) {
		return nil, nil
	}
	switch env.Type {
	case types.MsgPrePrepare:
		return e.onPrePrepare(env, now)
	case types.MsgPrepare:
		return e.onPrepare(env)
	case types.MsgCommit:
		return e.onCommit(env)
	case types.MsgViewChange:
		return e.onViewChange(env, now)
	case types.MsgNewView:
		return e.OnNewView(env, now)
	default:
		return nil, nil
	}
}

func (e *Engine) onPrePrepare(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || len(m.Txs) == 0 || len(m.PrevHashes) != 1 {
		return nil, nil
	}
	if env.From != e.Topo.Primary(e.Cluster, m.View) || m.View != e.View() || m.View < e.Promised() {
		return nil, nil
	}
	body := &types.Block{Txs: m.Txs, Parents: m.PrevHashes}
	if m.Digest != body.BatchDigest() {
		return nil, nil // malicious primary: digest mismatch (any tampered tx in the batch)
	}
	s := e.Bind(env, m, body, now)
	if s == nil {
		return nil, nil
	}
	out := e.votePrepare(s, m.Seq)
	out2, dec := e.maybeProgress(s, m.Seq)
	out = append(out, out2...)
	o3, d3 := e.RetryParked(now)
	return append(out, o3...), append(dec, d3...)
}

func (e *Engine) votePrepare(s *consensus.Slot[votes], seq uint64) []consensus.Outbound {
	if s.Votes.sentPrep {
		return nil
	}
	// Persist before the prepare vote leaves: the vote can end up inside a
	// prepared certificate, and a restarted node must keep honoring it.
	// Unpersistable ⇒ no vote (a re-delivered pre-prepare retries).
	if !e.PersistAccept(seq, s) {
		return nil
	}
	s.Votes.sentPrep = true
	// The vote names the parent it extends: a slot re-bound after a
	// cross-shard SyncChainHead is legitimately re-voted with a different
	// digest, and only the parent distinguishes that from equivocation —
	// both for the slasher and for anyone verifying a vote offline.
	m := &types.ConsensusMsg{View: s.View, Seq: seq, Digest: s.Digest, Cluster: e.Cluster,
		PrevHashes: s.Block.Parents}
	payload := m.Encode(nil)
	sig := e.Sign(payload)
	s.Votes.Vote(e.Self, s.Digest, sig)
	return []consensus.Outbound{{
		To:  e.Peers(),
		Env: &types.Envelope{Type: types.MsgPrepare, From: e.Self, Payload: payload, Sig: sig},
	}}
}

func (e *Engine) onPrepare(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || m.View != e.View() || m.View < e.Promised() {
		return nil, nil
	}
	s := e.VoteSlot(m.Seq)
	if s == nil {
		return nil, nil
	}
	s.Votes.Vote(env.From, m.Digest, env.Sig)
	return e.maybeProgress(s, m.Seq)
}

func (e *Engine) onCommit(env *types.Envelope) ([]consensus.Outbound, []consensus.Decision) {
	m, err := types.DecodeConsensusMsg(env.Payload)
	if err != nil || m.View < e.Promised() {
		return nil, nil
	}
	s := e.VoteSlot(m.Seq)
	if s == nil {
		return nil, nil
	}
	s.Votes.commits[env.From] = m.Digest
	if _, ok := s.Votes.voteSigs[env.From]; !ok {
		s.Votes.voteSigs[env.From] = env.Sig
	}
	return e.maybeProgress(s, m.Seq)
}

// maybeProgress moves a slot through prepared → committed as vote quorums
// fill in, tolerating any message arrival order.
func (e *Engine) maybeProgress(s *consensus.Slot[votes], seq uint64) ([]consensus.Outbound, []consensus.Decision) {
	var out []consensus.Outbound
	q := e.quorum()
	if len(s.Txs) > 0 && !s.Votes.sentCommit && countMatching(s.Votes.prepares, s.Digest) >= q {
		// Prepared: 2f matching prepares from others + our own (§3.1).
		s.Votes.sentCommit = true
		s.Votes.commits[e.Self] = s.Digest
		e.Ring.Recordf("prepared", seq, s.Digest, "v=%d", s.View)
		if e.OnPrepared != nil && s.Own {
			e.OnPrepared(seq)
		}
		m := &types.ConsensusMsg{View: s.View, Seq: seq, Digest: s.Digest, Cluster: e.Cluster,
			PrevHashes: s.Block.Parents}
		payload := m.Encode(nil)
		sig := e.Sign(payload)
		if _, ok := s.Votes.voteSigs[e.Self]; !ok {
			s.Votes.voteSigs[e.Self] = sig
		}
		out = append(out, consensus.Outbound{
			To:  e.Peers(),
			Env: &types.Envelope{Type: types.MsgCommit, From: e.Self, Payload: payload, Sig: sig},
		})
	}
	if len(s.Txs) > 0 && !s.Committed && countMatching(s.Votes.commits, s.Digest) >= q {
		s.Committed = true
	}
	return out, e.Advance()
}

// onViewChange applies the Byzantine view-change policy: join once f+1
// distinct nodes ask for the view (at least one correct node timed out, so
// the suspicion is credible); the would-be primary leads with 2f+1 votes.
// A reported value counts only with a verifiable prepared certificate, so
// one honest reporter suffices (a commit anywhere implies f+1 honest
// certificate holders, and any 2f+1 view-change quorum intersects them)
// while no coalition of f liars can fabricate a binding. The catch-up
// barrier is the (f+1)-th highest reported commit, so it is bounded by an
// honest node's.
func (e *Engine) onViewChange(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision) {
	f := e.Topo.F(e.Cluster)
	out, votes := e.OnViewChange(env, now, f+1, e.quorum())
	if votes == nil {
		return out, nil
	}
	for _, vc := range votes {
		certified := vc.Prepared[:0:0]
		for i := range vc.Prepared {
			if e.verifyCertificate(&vc.Prepared[i]) {
				certified = append(certified, vc.Prepared[i])
			}
		}
		vc.Prepared = certified
	}
	return append(out, e.LeadView(votes, f+1, now)...), nil
}

// verifyCertificate checks that a reported prepared instance carries a
// quorum of distinct cluster members' valid signatures over the canonical
// vote payload for (view, seq, digest, parent).
func (e *Engine) verifyCertificate(p *types.PreparedInstance) bool {
	payload := (&types.ConsensusMsg{
		View: p.View, Seq: p.Seq, Digest: p.Digest, Cluster: e.Cluster,
		PrevHashes: []types.Hash{p.Parent},
	}).Encode(nil)
	members := make(map[types.NodeID]bool, len(e.Topo.Members(e.Cluster)))
	for _, m := range e.Topo.Members(e.Cluster) {
		members[m] = true
	}
	valid := make(map[types.NodeID]bool)
	for _, pr := range p.Proof {
		if !members[pr.Node] || valid[pr.Node] {
			continue
		}
		if e.verify.Verify(pr.Node, payload, pr.Sig) {
			valid[pr.Node] = true
			if len(valid) >= e.quorum() {
				return true
			}
		}
	}
	return false
}

func countMatching(votes map[types.NodeID]types.Hash, digest types.Hash) int {
	n := 0
	for _, d := range votes {
		if d == digest {
			n++
		}
	}
	return n
}
