package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/types"
)

// xharness drives every node's cross-shard coordinator as a pure state
// machine under one vote policy: a scripted chain status per node,
// deterministic FIFO delivery, and (under the Byzantine policy) a MAC
// keyring signing every envelope.
type xharness struct {
	t       *testing.T
	topo    *consensus.Topology
	engines map[types.NodeID]*coordinator
	signers map[types.NodeID]crypto.Signer
	heads   map[types.NodeID]types.Hash
	drained map[types.NodeID]bool
	queue   []xrouted
	decided map[types.NodeID][]crossDecision
	drop    func(r xrouted) bool
	now     time.Time
}

type xrouted struct {
	to  types.NodeID
	env *types.Envelope
}

// coordinatorModels names the two vote policies the shared cases run under.
var coordinatorModels = []struct {
	name  string
	model types.FailureModel
}{{"crash", types.CrashOnly}, {"byz", types.Byzantine}}

func newXHarness(t *testing.T, model types.FailureModel, clusters int) *xharness {
	topo := consensus.UniformTopology(model, clusters, 1)
	h := &xharness{
		t:       t,
		topo:    topo,
		engines: make(map[types.NodeID]*coordinator),
		signers: make(map[types.NodeID]crypto.Signer),
		heads:   make(map[types.NodeID]types.Hash),
		drained: make(map[types.NodeID]bool),
		decided: make(map[types.NodeID][]crossDecision),
		now:     time.Unix(10, 0),
	}
	keys := crypto.NewMACKeyring()
	rng := rand.New(rand.NewSource(1))
	for _, id := range topo.AllNodes() {
		id := id
		if err := keys.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
		signer, err := keys.SignerFor(id)
		if err != nil {
			t.Fatal(err)
		}
		h.signers[id] = signer
		cluster, _ := topo.ClusterOf(id)
		h.heads[id] = ledger.GenesisHash()
		h.drained[id] = true
		status := func() chainStatus {
			return chainStatus{Head: h.heads[id], Drained: h.drained[id]}
		}
		validate := func(*types.Transaction) bool { return true }
		h.engines[id] = newCoordinator(topo.AnyByzantine(), topo, cluster, id, signer, keys,
			consensus.NewConflictTable(cluster), status, validate,
			time.Second, 200*time.Millisecond, 4, int64(id))
	}
	return h
}

// dropTo drops every message bound for a node of the given cluster.
func (h *xharness) dropTo(c types.ClusterID) func(xrouted) bool {
	return func(r xrouted) bool {
		rc, _ := h.topo.ClusterOf(r.to)
		return rc == c
	}
}

func (h *xharness) sendAll(from types.NodeID, outs []consensus.Outbound) {
	for _, o := range outs {
		for _, to := range o.To {
			r := xrouted{to: to, env: o.Env}
			if h.drop != nil && h.drop(r) {
				continue
			}
			h.queue = append(h.queue, r)
		}
	}
}

func (h *xharness) pump() {
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		h.deliver(m)
	}
}

func (h *xharness) deliver(m xrouted) {
	outs, decs := h.engines[m.to].Step(m.env, h.now)
	h.sendAll(m.to, outs)
	h.apply(m.to, decs)
}

// apply mimics the runtime: each decision moves the node's chain head to
// the new block and notifies the engine.
func (h *xharness) apply(id types.NodeID, decs []crossDecision) {
	for _, d := range decs {
		h.decided[id] = append(h.decided[id], d)
		block := &types.Block{Txs: d.Txs, Parents: d.Hashes}
		h.heads[id] = block.Hash()
		h.advance(id)
	}
}

// advance runs the engine's chain-advanced hook on node id.
func (h *xharness) advance(id types.NodeID) {
	outs, decs := h.engines[id].OnChainAdvanced(h.now)
	h.sendAll(id, outs)
	h.apply(id, decs)
}

func (h *xharness) tick(d time.Duration) {
	h.now = h.now.Add(d)
	for _, id := range h.topo.AllNodes() {
		outs, decs := h.engines[id].Tick(h.now)
		h.sendAll(id, outs)
		h.apply(id, decs)
	}
	h.pump()
}

func (h *xharness) initiate(from types.NodeID, txs ...*types.Transaction) []consensus.Outbound {
	return h.engines[from].Initiate(txs, h.now)
}

// hasDecided reports whether node id decided a batch containing tx.
func (h *xharness) hasDecided(id types.NodeID, tx *types.Transaction) bool {
	for _, d := range h.decided[id] {
		if xdecided(d, tx.ID) {
			return true
		}
	}
	return false
}

// xdecided reports whether the decision's batch contains the transaction.
func xdecided(d crossDecision, id types.TxID) bool {
	for _, tx := range d.Txs {
		if tx.ID == id {
			return true
		}
	}
	return false
}

func xtx(seq uint64, clusters ...types.ClusterID) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
		Client:   types.ClientIDBase + 1,
		Ops:      []types.Op{{From: 0, To: 1, Amount: 1}},
		Involved: types.NewClusterSet(clusters...),
	}
}

// coordinatorCases run under both vote policies.
var coordinatorCases = []struct {
	name string
	run  func(t *testing.T, model types.FailureModel)
}{
	{"NormalCase", caseNormal},
	{"ParticipantLockBlocksSecondProposal", caseLockBlocksSecondProposal},
	{"WithdrawReleasesLocks", caseWithdrawReleasesLocks},
	{"StaleAcceptCannotCommitAfterWithdraw", caseStaleAcceptAfterWithdraw},
	{"SplitVotesTriggerImmediateReproposal", caseSplitVotes},
	{"InvalidVoteGatesExecution", caseInvalidVote},
	{"PipelinedSameSetLeads", casePipelinedSameSet},
	{"WithdrawCascadesToSameSetFollowers", caseWithdrawCascade},
	{"DeferredSelfVote", caseDeferredSelfVote},
	{"SelfVoteBeforeForeignGrant", caseSelfVoteFirst},
	{"DisjointSetsDecideIndependently", caseDisjointSets},
	{"PerDigestStateRetires", casePerDigestStateRetires},
	{"DroppedLeadLeavesNoState", caseDroppedLeadLeavesNoState},
	{"AbortFromNonProposerIgnored", caseAbortFromNonProposer},
}

func TestCoordinator(t *testing.T) {
	for _, c := range coordinatorCases {
		t.Run(c.name, func(t *testing.T) {
			for _, m := range coordinatorModels {
				t.Run(m.name, func(t *testing.T) { c.run(t, m.model) })
			}
		})
	}
	for _, c := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"AbortAfterCommitPhaseKeepsSlot", caseAbortAfterCommitPhase},
		{"DeadCommitReleasedOnceHeadMoves", caseDeadCommitReleased},
		{"ForgedSignatureDropped", caseForgedSignature},
	} {
		t.Run(c.name+"/byz", c.run)
	}
	t.Run("StaleAbortKeepsNewerVote/crash", caseStaleAbortKeepsNewerVote)
}

// The Algorithm 1 names predate the shared suite; each runs its case under
// the crash policy.
func TestAlg1NormalCase(t *testing.T) { caseNormal(t, types.CrashOnly) }
func TestAlg1ParticipantLockBlocksSecondProposal(t *testing.T) {
	caseLockBlocksSecondProposal(t, types.CrashOnly)
}
func TestAlg1WithdrawReleasesLocks(t *testing.T) { caseWithdrawReleasesLocks(t, types.CrashOnly) }
func TestAlg1StaleAcceptCannotCommitAfterWithdraw(t *testing.T) {
	caseStaleAcceptAfterWithdraw(t, types.CrashOnly)
}
func TestAlg1SplitVotesTriggerImmediateReproposal(t *testing.T) { caseSplitVotes(t, types.CrashOnly) }
func TestAlg1InvalidVoteGatesExecution(t *testing.T)            { caseInvalidVote(t, types.CrashOnly) }
func TestAlg1PipelinedSameSetLeads(t *testing.T)                { casePipelinedSameSet(t, types.CrashOnly) }
func TestAlg1WithdrawCascadesToSameSetFollowers(t *testing.T) {
	caseWithdrawCascade(t, types.CrashOnly)
}
func TestAlg1DeferredSelfVote(t *testing.T)                { caseDeferredSelfVote(t, types.CrashOnly) }
func TestAlg1DisjointSetsDecideIndependently(t *testing.T) { caseDisjointSets(t, types.CrashOnly) }

func caseNormal(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 3)
	initiator := h.topo.Primary(0, 0)
	h.sendAll(initiator, h.initiate(initiator, xtx(1, 0, 1)))
	h.pump()

	// Every node of clusters 0 and 1 decides; cluster 2 decides nothing.
	for _, id := range h.topo.AllNodes() {
		c, _ := h.topo.ClusterOf(id)
		want := 0
		if c == 0 || c == 1 {
			want = 1
		}
		if got := len(h.decided[id]); got != want {
			t.Fatalf("node %s decided %d, want %d", id, got, want)
		}
	}
	// The agreed parent list has one slot per involved cluster and equals
	// genesis on both.
	d := h.decided[initiator][0]
	if len(d.Hashes) != 2 {
		t.Fatalf("hash list has %d slots, want 2", len(d.Hashes))
	}
	for _, hh := range d.Hashes {
		if hh != ledger.GenesisHash() {
			t.Fatalf("agreed parent %s, want genesis", hh)
		}
	}
	if d.Valid&1 == 0 {
		t.Fatal("decision not marked valid")
	}
	if s := h.engines[initiator].Stats(); s.Proposes != 1 || s.Decides != 1 {
		t.Fatalf("initiator stats %+v, want one propose and one decide", s)
	}
}

func caseLockBlocksSecondProposal(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 3)
	p0 := h.topo.Primary(0, 0)
	p1member := h.topo.Members(1)[1] // a backup of cluster 1

	// T1 {0,1} proposes; deliver only to one cluster-1 backup and hold the
	// rest, so the backup is locked on T1.
	var held []xrouted
	for _, o := range h.initiate(p0, xtx(1, 0, 1)) {
		for _, to := range o.To {
			if to == p1member {
				h.queue = append(h.queue, xrouted{to: to, env: o.Env})
			} else {
				held = append(held, xrouted{to: to, env: o.Env})
			}
		}
	}
	h.pump()
	if !h.engines[p1member].Locked() {
		t.Fatal("participant did not lock after voting")
	}
	// A conflicting T2 {1,2} proposal arrives at the locked backup: parked.
	p1 := h.topo.Primary(1, 0)
	for _, o := range h.initiate(p1, xtx(2, 1, 2)) {
		for _, to := range o.To {
			if to == p1member {
				h.queue = append(h.queue, xrouted{to: to, env: o.Env})
			}
		}
	}
	h.pump()
	if h.engines[p1member].Waiting() != 1 {
		t.Fatalf("conflicting proposal not parked: waiting=%d", h.engines[p1member].Waiting())
	}
	// Release T1's held messages: T1 commits, unlocking the backup, which
	// then grants T2 through the parked proposal.
	h.queue = append(h.queue, held...)
	h.pump()
	if len(h.decided[p1member]) == 0 {
		t.Fatal("T1 never decided at the locked backup")
	}
	if h.engines[p1member].Waiting() != 0 {
		t.Fatal("parked proposal not drained after unlock")
	}
}

func caseWithdrawReleasesLocks(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	// Cluster 1 is unreachable: T1 can never gather its quorum.
	h.drop = h.dropTo(1)
	h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
	h.pump()
	if !h.engines[p0].Locked() {
		t.Fatal("initiator did not self-lock")
	}
	// Past the retry deadline the initiator withdraws: it unlocks itself and
	// broadcasts the abort to the reachable nodes.
	h.tick(600 * time.Millisecond)
	if h.engines[p0].Locked() {
		t.Fatal("withdraw did not release the initiator's own lock")
	}
	// Cluster-0 backups that had voted are released by the abort.
	for _, id := range h.topo.Members(0)[1:] {
		if h.engines[id].Locked() {
			t.Fatalf("node %s still locked after abort", id)
		}
	}
	if len(h.decided[p0]) != 0 {
		t.Fatal("withdrawn attempt decided")
	}
}

func caseStaleAcceptAfterWithdraw(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	t1 := xtx(1, 0, 1)

	// Deliver the proposals but capture every accept cluster 1 sends.
	var stale []xrouted
	h.sendAll(p0, h.initiate(p0, t1))
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		fromCluster, _ := h.topo.ClusterOf(m.env.From)
		if m.env.Type == types.MsgXAccept && fromCluster == 1 {
			stale = append(stale, m)
			continue
		}
		h.deliver(m)
	}
	// The initiator withdraws (invalidating the old votes)…
	h.tick(600 * time.Millisecond)
	// …then the stale accepts finally arrive: they must not complete a
	// quorum for the withdrawn attempt.
	h.queue = append(h.queue, stale...)
	h.pump()
	for _, id := range h.topo.AllNodes() {
		if h.hasDecided(id, t1) {
			t.Fatalf("node %s decided a withdrawn attempt from stale votes", id)
		}
	}
}

func caseSplitVotes(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	// Cluster 1's nodes report pairwise different chain heads: no matching
	// quorum is possible and the initiator must re-propose without waiting
	// for its timer.
	for i, id := range h.topo.Members(1) {
		h.heads[id] = types.HashBytes([]byte{byte(i), 0xab})
	}
	h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
	h.pump()
	s := h.engines[p0].Stats()
	if s.Decides != 0 {
		t.Fatal("decided despite a cluster-wide head split")
	}
	if s.Proposes < 2 {
		t.Fatalf("initiator proposed %d times; split votes should force an immediate retry", s.Proposes)
	}
}

func caseInvalidVote(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	// Cluster 1's nodes all vote "invalid" for their local part.
	for _, id := range h.topo.Members(1) {
		h.engines[id].validate = func(*types.Transaction) bool { return false }
	}
	p0 := h.topo.Primary(0, 0)
	h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
	h.pump()
	d := h.decided[p0]
	if len(d) != 1 {
		t.Fatalf("initiator decided %d, want 1 (ordered but invalid)", len(d))
	}
	if d[0].Valid != 0 {
		t.Fatal("decision marked valid despite an invalid cluster vote")
	}
}

func casePipelinedSameSet(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	txs := []*types.Transaction{xtx(1, 0, 1), xtx(2, 0, 1), xtx(3, 0, 1)}

	// Three same-set attempts launch back to back: the followers' PROPOSEs
	// go out while the first holds the slot votes, park at every
	// participant, and must be granted there in propose order.
	h.sendAll(p0, h.initiate(p0, txs[0]))
	if !h.engines[p0].CanInitiate(txs[1].Involved) {
		t.Fatal("same-set follower refused by the conflict table")
	}
	h.sendAll(p0, h.initiate(p0, txs[1]))
	h.sendAll(p0, h.initiate(p0, txs[2]))
	if h.engines[p0].table.Leads() != 3 {
		t.Fatalf("leads in flight = %d, want 3", h.engines[p0].table.Leads())
	}
	h.pump()
	// All decide everywhere, in propose order, with no withdraw.
	for _, id := range h.topo.AllNodes() {
		if len(h.decided[id]) != len(txs) {
			t.Fatalf("node %s decided %d batches, want %d", id, len(h.decided[id]), len(txs))
		}
		for i, d := range h.decided[id] {
			if !xdecided(d, txs[i].ID) {
				t.Fatalf("node %s decided out of propose order at position %d", id, i)
			}
		}
		if w := h.engines[id].Stats().Withdraws; w != 0 {
			t.Fatalf("node %s withdrew %d attempts", id, w)
		}
	}
	if h.engines[p0].table.Leads() != 0 {
		t.Fatalf("leads not drained after decide: %d", h.engines[p0].table.Leads())
	}
}

func caseWithdrawCascade(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	// Cluster 1 unreachable: neither attempt can quorum.
	h.drop = h.dropTo(1)
	h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
	t2 := xtx(2, 0, 1)
	h.sendAll(p0, h.initiate(p0, t2))
	h.pump()
	// The follower's own timer is far off: only the cascade can stop it.
	h.engines[p0].leads[types.BatchDigest([]*types.Transaction{t2})].deadline = h.now.Add(time.Hour)
	// Past the deadline the stalled attempt withdraws — and takes its
	// same-set follower with it, so no follower keeps remote slot votes
	// while the home slot could go to a foreign attempt.
	h.tick(700 * time.Millisecond)
	for _, lead := range h.engines[p0].leads {
		if !lead.dormant {
			t.Fatalf("lead %s still live after the withdraw cascade", lead.digest)
		}
	}
	if h.engines[p0].Locked() {
		t.Fatal("initiator still holds a slot vote after withdrawing both")
	}
	for _, id := range h.topo.Members(0)[1:] {
		if h.engines[id].Locked() {
			t.Fatalf("backup %s still locked after the aborts", id)
		}
	}
}

func caseDeferredSelfVote(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	// The initiator's chain is undrained at launch: the PROPOSE still goes
	// out, but the initiator's own vote waits.
	h.drained[p0] = false
	t1 := xtx(1, 0, 1)
	outs := h.initiate(p0, t1)
	if len(outs) == 0 {
		t.Fatal("undrained initiator did not multicast the proposal")
	}
	if h.engines[p0].Locked() {
		t.Fatal("initiator voted on an undrained chain")
	}
	if !h.engines[p0].NeedsSlot() {
		t.Fatal("deferred self-vote not reported via NeedsSlot")
	}
	h.sendAll(p0, outs)
	h.pump() // participants vote; the backups alone may already form quorum
	// The chain drains; the self-vote is cast on the next chain-advance
	// retry and the attempt completes if it had not already.
	h.drained[p0] = true
	h.advance(p0)
	h.pump()
	if !h.hasDecided(p0, t1) {
		t.Fatal("attempt with a deferred self-vote never decided at the initiator")
	}
}

func caseSelfVoteFirst(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 3)
	p0 := h.topo.Primary(0, 0)
	// p0 leads T1 on an undrained chain (its own vote deferred) while a
	// foreign T2 proposal over cluster 0 parks there.
	h.drained[p0] = false
	t1 := xtx(1, 0, 1)
	h.initiate(p0, t1)
	p2 := h.topo.Primary(2, 0)
	for _, o := range h.initiate(p2, xtx(2, 0, 2)) {
		for _, to := range o.To {
			if to == p0 {
				h.deliver(xrouted{to: to, env: o.Env})
			}
		}
	}
	if h.engines[p0].Waiting() != 1 {
		t.Fatalf("foreign proposal not parked: waiting=%d", h.engines[p0].Waiting())
	}
	// When the chain drains, the lead's home slot vote outranks the parked
	// foreign proposal.
	h.drained[p0] = true
	h.engines[p0].OnChainAdvanced(h.now)
	if holder, _ := h.engines[p0].table.Holder(); holder != types.BatchDigest([]*types.Transaction{t1}) {
		t.Fatal("chain advance granted a parked foreign proposal before the lead's own vote")
	}
	if h.engines[p0].Waiting() != 1 {
		t.Fatal("foreign proposal left the waiting set while the slot is held")
	}
}

func caseDisjointSets(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 4)
	pa := h.topo.Primary(0, 0)
	pc := h.topo.Primary(2, 0)
	// Hold ALL of T1's traffic undelivered while T2 {2,3} runs end to end:
	// T2 must not need anything from clusters 0/1.
	h.initiate(pa, xtx(1, 0, 1)) // never delivered
	tb := xtx(2, 2, 3)
	h.sendAll(pc, h.initiate(pc, tb))
	h.pump()
	for _, id := range h.topo.Members(2) {
		if !h.hasDecided(id, tb) {
			t.Fatalf("node %s did not decide the disjoint transaction", id)
		}
	}
}

// casePerDigestStateRetires decides many batches with parking and aborts
// and checks that the per-digest maps hold nothing once they are decided
// (only the replay guard, decided, keeps every digest).
func casePerDigestStateRetires(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 3)
	p0, p1 := h.topo.Primary(0, 0), h.topo.Primary(1, 0)
	const rounds = 500 // two batches per round
	var txs []*types.Transaction
	for r := 0; r < rounds; r++ {
		// Two conflicting leads over cluster 1: one of them parks there.
		ta, tb := xtx(uint64(2*r+1), 0, 1), xtx(uint64(2*r+2), 1, 2)
		txs = append(txs, ta, tb)
		if r%10 == 0 {
			// Cluster 2 unreachable for a while: tb withdraws (ABORT).
			h.drop = h.dropTo(2)
		}
		h.sendAll(p0, h.initiate(p0, ta))
		h.sendAll(p1, h.initiate(p1, tb))
		h.pump()
		h.drop = nil
		for i := 0; i < 200 && !(h.hasDecided(p0, ta) && h.hasDecided(p1, tb)); i++ {
			h.tick(50 * time.Millisecond)
		}
	}
	for i := 0; i <= maxCommitResends; i++ {
		h.tick(time.Second) // let the commit retransmission schedule run out
	}
	for _, tx := range txs {
		if c := min(tx.Involved[0], tx.Involved[1]); !h.hasDecided(h.topo.Primary(c, 0), tx) {
			t.Fatalf("transaction %d never decided", tx.ID.Seq)
		}
	}
	if s := h.engines[p1].Stats(); s.Parks == 0 || s.Withdraws == 0 {
		t.Fatalf("run exercised no parking or no withdraw: %+v", s)
	}
	for id, x := range h.engines {
		if len(x.waiting) != 0 || len(x.waitOrder) > 8 || len(x.leads) != 0 || len(x.leadOrder) != 0 {
			t.Fatalf("node %s keeps waiting=%d waitOrder=%d leads=%d leadOrder=%d",
				id, len(x.waiting), len(x.waitOrder), len(x.leads), len(x.leadOrder))
		}
		switch p := x.policy.(type) {
		case *crashVotes:
			if len(p.recent) != 0 {
				t.Fatalf("node %s retains %d commits", id, len(p.recent))
			}
		case *byzVotes:
			if len(p.instances) != 0 {
				t.Fatalf("node %s keeps %d instances", id, len(p.instances))
			}
		}
	}
}

// caseDroppedLeadLeavesNoState keeps cluster 1 unreachable for a lead's
// whole life: once the initiator drops it after maxCrossAttempts, no node
// of cluster 0 may keep per-digest state for the batch.
func caseDroppedLeadLeavesNoState(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	h.drop = h.dropTo(1)
	p0 := h.topo.Primary(0, 0)
	h.sendAll(p0, h.initiate(p0, xtx(1, 0, 1)))
	h.pump()
	const step = 50 * time.Millisecond
	for i := 0; i < 100_000 && len(h.engines[p0].leads) > 0; i++ {
		h.tick(step)
	}
	if s := h.engines[p0].Stats(); len(h.engines[p0].leads) != 0 || s.Proposes != maxCrossAttempts {
		t.Fatalf("lead not dropped after %d attempts: leads=%d %+v", maxCrossAttempts, len(h.engines[p0].leads), s)
	}
	// Participants let an instance go once it has sat idle.
	for i := time.Duration(0); i <= instanceIdle*h.engines[p0].lockTimeout/step; i++ {
		h.tick(step)
	}
	for _, id := range h.topo.Members(0) {
		x := h.engines[id]
		if len(x.waiting) != 0 || len(x.leads) != 0 || x.table.Held() {
			t.Fatalf("node %s keeps waiting=%d leads=%d held=%v", id, len(x.waiting), len(x.leads), x.table.Held())
		}
		switch p := x.policy.(type) {
		case *crashVotes:
			if len(p.recent) != 0 {
				t.Fatalf("node %s retains %d commits", id, len(p.recent))
			}
		case *byzVotes:
			if len(p.instances) != 0 {
				t.Fatalf("node %s keeps %d instances", id, len(p.instances))
			}
		}
	}
}

// byzCommitPhase starts T1 {0,1} under the Byzantine policy with every
// COMMIT dropped: all involved nodes enter the commit phase (holding their
// slot votes) but nobody can decide.
func byzCommitPhase(t *testing.T) (*xharness, *types.Transaction) {
	h := newXHarness(t, types.Byzantine, 2)
	h.drop = func(r xrouted) bool { return r.env.Type == types.MsgXCommit }
	t1 := xtx(1, 0, 1)
	p0 := h.topo.Primary(0, 0)
	h.sendAll(p0, h.initiate(p0, t1))
	h.pump()
	for _, id := range h.topo.AllNodes() {
		if !h.engines[id].Locked() {
			t.Fatalf("node %s not holding its slot vote in the commit phase", id)
		}
	}
	return h, t1
}

func caseAbortFromNonProposer(t *testing.T, model types.FailureModel) {
	h := newXHarness(t, model, 2)
	p0 := h.topo.Primary(0, 0)
	h.drop = h.dropTo(1) // no quorum: cluster 0 stays locked on T1
	t1 := xtx(1, 0, 1)
	h.sendAll(p0, h.initiate(p0, t1))
	h.pump()
	victim := h.topo.Members(0)[1]
	// Another involved node, validly signed, tries to abort p0's attempt.
	forger := h.topo.Members(0)[2]
	m := &types.ConsensusMsg{View: 1, Digest: types.BatchDigest([]*types.Transaction{t1}), Cluster: 0}
	payload := m.Encode(nil)
	h.deliver(xrouted{to: victim, env: &types.Envelope{Type: types.MsgXAbort, From: forger,
		Payload: payload, Sig: h.signers[forger].Sign(payload)}})
	if !h.engines[victim].Locked() {
		t.Fatal("an ABORT from a non-proposer released the slot vote")
	}
	// The proposer's own withdraw does release it.
	h.tick(600 * time.Millisecond)
	if h.engines[victim].Locked() {
		t.Fatal("the proposer's ABORT did not release the slot vote")
	}
}

// caseStaleAbortKeepsNewerVote: the initiator answers a late accept from
// a withdrawn attempt with an ABORT; it must not free the vote the same
// participant has since cast for the re-proposed attempt.
func caseStaleAbortKeepsNewerVote(t *testing.T) {
	h := newXHarness(t, types.CrashOnly, 2)
	p0, P := h.topo.Primary(0, 0), h.topo.Members(1)[1]
	var stale, current []consensus.Outbound
	for _, o := range h.initiate(p0, xtx(1, 0, 1)) {
		if slices.Contains(o.To, P) {
			stale, _ = h.engines[P].Step(o.Env, h.now) // P's attempt-1 accept, held back
		}
	}
	// The initiator withdraws (its ABORT is lost) and re-proposes.
	for i := 0; i < 50 && len(current) == 0; i++ {
		h.now = h.now.Add(100 * time.Millisecond)
		outs, _ := h.engines[p0].Tick(h.now)
		for _, o := range outs {
			if o.Env.Type == types.MsgXPropose {
				current, _ = h.engines[P].Step(o.Env, h.now)
			}
		}
	}
	if len(current) == 0 || !h.engines[P].Locked() {
		t.Fatal("participant did not vote on the re-proposed attempt")
	}
	abort, _ := h.engines[p0].Step(stale[0].Env, h.now)
	if len(abort) != 1 || abort[0].Env.Type != types.MsgXAbort {
		t.Fatalf("stale accept answered with %d messages, want one ABORT", len(abort))
	}
	h.engines[P].Step(abort[0].Env, h.now)
	if !h.engines[P].Locked() {
		t.Fatal("an ABORT for a withdrawn attempt freed the vote for its successor")
	}
}

func caseAbortAfterCommitPhase(t *testing.T) {
	h, _ := byzCommitPhase(t)
	// The initiator's withdraw multicasts ABORT; nobody that committed
	// (the initiator included) may release: the decision may be in flight.
	h.tick(600 * time.Millisecond)
	if s := h.engines[h.topo.Primary(0, 0)].Stats(); s.Withdraws == 0 {
		t.Fatal("initiator never withdrew")
	}
	for _, id := range h.topo.AllNodes() {
		if !h.engines[id].Locked() {
			t.Fatalf("node %s released its slot vote after the commit phase", id)
		}
	}
}

func caseDeadCommitReleased(t *testing.T) {
	h, _ := byzCommitPhase(t)
	// One node's chain moves past the committed parent (it learned a
	// different block through chain sync): no correct node of its cluster
	// can endorse that hash list any more, so the pinned commit is dead.
	id := h.topo.Members(1)[2]
	h.heads[id] = types.HashBytes([]byte("elsewhere"))
	h.tick(10 * time.Millisecond)
	if h.engines[id].Locked() {
		t.Fatal("dead commit still holds the slot vote after the head moved")
	}
	if !h.engines[h.topo.Members(1)[1]].Locked() {
		t.Fatal("a node whose head did not move released its commit")
	}
}

func caseForgedSignature(t *testing.T) {
	h := newXHarness(t, types.Byzantine, 2)
	p0 := h.topo.Primary(0, 0)
	outs := h.initiate(p0, xtx(1, 0, 1))
	victim := h.topo.Members(1)[1]
	genuine := outs[0].Env
	forged := &types.Envelope{Type: genuine.Type, From: genuine.From, Payload: genuine.Payload,
		Sig: append([]byte(nil), genuine.Sig...)}
	forged.Sig[0] ^= 1
	o, d := h.engines[victim].Step(forged, h.now)
	if len(o) != 0 || len(d) != 0 || h.engines[victim].Locked() || h.engines[victim].Waiting() != 0 {
		t.Fatal("a PROPOSE with a forged signature was acted on")
	}
	// The genuine envelope is accepted.
	if o, _ := h.engines[victim].Step(genuine, h.now); len(o) == 0 || !h.engines[victim].Locked() {
		t.Fatal("the genuine PROPOSE was not voted on")
	}
}

func TestDeferIntraSlotPrecision(t *testing.T) {
	table := consensus.NewConflictTable(0)
	mkEnv := func(seq uint64) *types.Envelope {
		m := &types.ConsensusMsg{View: 0, Seq: seq, Cluster: 0,
			PrevHashes: []types.Hash{ledger.GenesisHash()},
			Txs:        []*types.Transaction{xtx(9, 0)}}
		return &types.Envelope{Type: types.MsgPaxosAccept, From: 1, Payload: m.Encode(nil)}
	}
	// Free table: nothing defers.
	if deferIntra(table, mkEnv(5)) {
		t.Fatal("deferred on a free table")
	}
	table.Acquire(types.HashBytes([]byte{1}), types.NewClusterSet(0, 1), 5,
		ledger.GenesisHash(), time.Unix(100, 0))
	// Slot-precise: only the reserved slot defers.
	if !deferIntra(table, mkEnv(5)) {
		t.Fatal("proposal at the reserved slot not deferred")
	}
	if deferIntra(table, mkEnv(6)) || deferIntra(table, mkEnv(4)) {
		t.Fatal("proposal at a non-reserved slot deferred")
	}
	// View-change machinery defers conservatively while the vote is held.
	vc := &types.Envelope{Type: types.MsgViewChange, From: 1}
	if !deferIntra(table, vc) {
		t.Fatal("view change not deferred while the slot vote is held")
	}
}
