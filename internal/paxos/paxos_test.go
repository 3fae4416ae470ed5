package paxos

import (
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/ledger"
	"sharper/internal/types"
)

// harness drives a cluster of engines deterministically: outbound messages
// are queued and delivered in FIFO order, with optional drops.
type harness struct {
	t       *testing.T
	topo    *consensus.Topology
	engines map[types.NodeID]*Engine
	queue   []routed
	decided map[types.NodeID][]consensus.Decision
	drop    func(to types.NodeID, env *types.Envelope) bool
	now     time.Time
}

type routed struct {
	to  types.NodeID
	env *types.Envelope
}

func newHarness(t *testing.T, f int) *harness {
	topo := consensus.UniformTopology(types.CrashOnly, 1, f)
	h := &harness{
		t:       t,
		topo:    topo,
		engines: make(map[types.NodeID]*Engine),
		decided: make(map[types.NodeID][]consensus.Decision),
		now:     time.Unix(0, 0),
	}
	for _, id := range topo.AllNodes() {
		h.engines[id] = New(Config{Topology: topo, Cluster: 0, Self: id, Timeout: 100 * time.Millisecond},
			ledger.GenesisHash())
	}
	return h
}

func (h *harness) sendAll(outs []consensus.Outbound) {
	for _, o := range outs {
		for _, to := range o.To {
			if h.drop != nil && h.drop(to, o.Env) {
				continue
			}
			h.queue = append(h.queue, routed{to: to, env: o.Env})
		}
	}
}

// pump delivers queued messages until quiescence.
func (h *harness) pump() {
	for len(h.queue) > 0 {
		m := h.queue[0]
		h.queue = h.queue[1:]
		outs, decs := h.engines[m.to].Step(m.env, h.now)
		h.sendAll(outs)
		h.decided[m.to] = append(h.decided[m.to], decs...)
	}
}

// tick advances time and fires every engine's timers.
func (h *harness) tick(d time.Duration) {
	h.now = h.now.Add(d)
	for _, id := range h.topo.AllNodes() {
		outs, decs := h.engines[id].Tick(h.now)
		h.sendAll(outs)
		h.decided[id] = append(h.decided[id], decs...)
	}
	h.pump()
}

func (h *harness) propose(txs ...*types.Transaction) {
	for _, e := range h.engines {
		if e.IsPrimary() {
			outs, _ := e.Propose(txs, h.now)
			h.sendAll(outs)
			h.pump()
			return
		}
	}
	h.t.Fatal("no primary")
}

// batch wraps transactions as a proposal batch.
func batch(txs ...*types.Transaction) []*types.Transaction { return txs }

func tx(seq uint64) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
		Client:   types.ClientIDBase + 1,
		Ops:      []types.Op{{From: 0, To: 1, Amount: int64(seq)}},
		Involved: types.ClusterSet{0},
	}
}

func TestNormalCaseCommit(t *testing.T) {
	h := newHarness(t, 1)
	h.propose(tx(1))
	h.propose(tx(2))
	for id, decs := range h.decided {
		if len(decs) != 2 {
			t.Fatalf("node %s decided %d blocks, want 2", id, len(decs))
		}
		if decs[0].Seq != 1 || decs[1].Seq != 2 {
			t.Fatalf("node %s decided out of order: %v", id, decs)
		}
		if decs[0].Block.Txs[0].ID.Seq != 1 {
			t.Fatalf("node %s decided wrong tx first", id)
		}
	}
	// All engines agree on the committed head.
	var head types.Hash
	for _, e := range h.engines {
		_, h2 := e.ProposedHead()
		if head.IsZero() {
			head = h2
		} else if head != h2 {
			t.Fatal("heads diverge")
		}
	}
}

// TestBatchedCommit: a multi-transaction batch commits through one Paxos
// instance as one block, in proposal order, at every node.
func TestBatchedCommit(t *testing.T) {
	h := newHarness(t, 1)
	h.propose(tx(1), tx(2), tx(3))
	for id, decs := range h.decided {
		if len(decs) != 1 {
			t.Fatalf("node %s decided %d instances, want 1", id, len(decs))
		}
		b := decs[0].Block
		if len(b.Txs) != 3 {
			t.Fatalf("node %s block carries %d txs, want 3", id, len(b.Txs))
		}
		for i, bt := range b.Txs {
			if bt.ID.Seq != uint64(i+1) {
				t.Fatalf("node %s batch order broken at %d", id, i)
			}
		}
	}
}

func TestPipelinedProposals(t *testing.T) {
	h := newHarness(t, 1)
	// Queue three proposals before delivering anything.
	var primary *Engine
	for _, e := range h.engines {
		if e.IsPrimary() {
			primary = e
		}
	}
	for i := uint64(1); i <= 3; i++ {
		outs, seq := primary.Propose(batch(tx(i)), h.now)
		if seq != i {
			t.Fatalf("assigned seq %d, want %d", seq, i)
		}
		h.sendAll(outs)
	}
	h.pump()
	for id, decs := range h.decided {
		if len(decs) != 3 {
			t.Fatalf("node %s decided %d, want 3", id, len(decs))
		}
	}
}

func TestCommitWithFCrashedBackups(t *testing.T) {
	h := newHarness(t, 1)
	crashed := h.topo.Members(0)[2]
	h.drop = func(to types.NodeID, env *types.Envelope) bool { return to == crashed }
	h.propose(tx(1))
	for id, decs := range h.decided {
		if id == crashed {
			continue
		}
		if len(decs) != 1 {
			t.Fatalf("node %s decided %d, want 1", id, len(decs))
		}
	}
}

func TestViewChangeOnPrimaryCrash(t *testing.T) {
	h := newHarness(t, 1)
	old := h.topo.Primary(0, 0)
	h.propose(tx(1))
	// Crash the primary, then deliver a proposal that cannot commit: a
	// backup accepts but never sees the commit, its timer fires.
	h.drop = func(to types.NodeID, env *types.Envelope) bool { return to == old }
	outs, _ := h.engines[old].Propose(batch(tx(2)), h.now)
	h.sendAll(outs)
	h.pump()
	// Fire timers past the timeout: backups suspect and elect view 1.
	h.tick(200 * time.Millisecond)
	h.tick(200 * time.Millisecond)
	for id, e := range h.engines {
		if id == old {
			continue
		}
		if e.View() != 1 {
			t.Fatalf("node %s still in view %d", id, e.View())
		}
	}
	newPrimary := h.topo.Primary(0, 1)
	if newPrimary == old {
		t.Fatal("rotation returned the crashed primary")
	}
	// The new primary can commit fresh transactions.
	outs, _ = h.engines[newPrimary].Propose(batch(tx(3)), h.now)
	h.sendAll(outs)
	h.pump()
	committed := 0
	for id, decs := range h.decided {
		if id == old {
			continue
		}
		for _, d := range decs {
			if d.Block.Txs[0].ID.Seq == 3 {
				committed++
			}
		}
	}
	if committed != 2 {
		t.Fatalf("tx 3 committed at %d live nodes, want 2", committed)
	}
}

func TestSuspectPrimary(t *testing.T) {
	h := newHarness(t, 1)
	backup := h.topo.Members(0)[1]
	outs := h.engines[backup].SuspectPrimary(h.now)
	if len(outs) == 0 {
		t.Fatal("suspicion produced no view-change message")
	}
	h.sendAll(outs)
	h.pump()
	h.tick(10 * time.Millisecond)
}

func TestNonPrimaryProposalIgnored(t *testing.T) {
	h := newHarness(t, 1)
	backup := h.topo.Members(0)[2]
	m := &types.ConsensusMsg{
		View: 0, Seq: 1, Digest: types.BatchDigest(batch(tx(9))), Cluster: 0,
		PrevHashes: []types.Hash{ledger.GenesisHash()},
		Txs:        batch(tx(9)),
	}
	// Sent "from" a backup instead of the primary.
	outs, _ := h.engines[h.topo.Members(0)[1]].Step(&types.Envelope{
		Type: types.MsgPaxosAccept, From: backup, Payload: m.Encode(nil),
	}, h.now)
	if len(outs) != 0 {
		t.Fatal("proposal from a non-primary was answered")
	}
}

func TestDuplicateAcceptedNotDoubleCounted(t *testing.T) {
	h := newHarness(t, 2) // 5 nodes, quorum f+1 = 3
	var primary *Engine
	for _, e := range h.engines {
		if e.IsPrimary() {
			primary = e
		}
	}
	outs, _ := primary.Propose(batch(tx(1)), h.now)
	_ = outs
	// One backup's accepted message delivered three times must not commit
	// (primary + 1 distinct backup = 2 < 3).
	m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest(batch(tx(1))), Cluster: 0}
	env := &types.Envelope{Type: types.MsgPaxosAccepted, From: h.topo.Members(0)[1], Payload: m.Encode(nil)}
	var sent []consensus.Outbound
	for i := 0; i < 3; i++ {
		o, _ := primary.Step(env, h.now)
		sent = append(sent, o...)
	}
	for _, o := range sent {
		if o.Env.Type == types.MsgPaxosCommit {
			t.Fatal("duplicate accepted votes reached quorum")
		}
	}
	// A second distinct backup completes the quorum.
	env2 := &types.Envelope{Type: types.MsgPaxosAccepted, From: h.topo.Members(0)[2], Payload: m.Encode(nil)}
	o, _ := primary.Step(env2, h.now)
	committed := false
	for _, ob := range o {
		if ob.Env.Type == types.MsgPaxosCommit {
			committed = true
		}
	}
	if !committed {
		t.Fatal("quorum of distinct votes did not commit")
	}
}
