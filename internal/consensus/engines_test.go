package consensus_test

import (
	"math/rand"
	"testing"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/paxos"
	"sharper/internal/pbft"
	"sharper/internal/types"
)

// engine is the surface of an intra-shard engine the shared cases drive.
type engine interface {
	Propose(txs []*types.Transaction, now time.Time) ([]consensus.Outbound, uint64)
	Step(env *types.Envelope, now time.Time) ([]consensus.Outbound, []consensus.Decision)
	Tick(now time.Time) ([]consensus.Outbound, []consensus.Decision)
	SyncChainHead(seq uint64, head types.Hash, now time.Time) ([]consensus.Outbound, []consensus.Decision, []*types.Transaction)
	ProposedHead() (uint64, types.Hash)
	HasUncommitted() bool
	IsPrimary() bool
	Restore(view, promised uint64, insts []consensus.DurableInstance, now time.Time)
	SuspectPrimary(now time.Time) []consensus.Outbound
}

// flavor adapts one engine to the shared cases.
type flavor struct {
	name     string
	model    types.FailureModel
	proposal types.MsgType // the message carrying a proposed batch
	// firstValueWins: a second value at one (view, slot) is refused.
	firstValueWins bool
	build          func(c *cluster, id types.NodeID, reserved func(uint64) bool, m *obs.EngineMetrics) engine
	// commit returns the messages that tell node `to` that seq committed
	// digest on parent.
	commit func(c *cluster, to types.NodeID, seq uint64, digest, parent types.Hash) []*types.Envelope
}

const timeout = 100 * time.Millisecond

var flavors = []flavor{
	{
		name: "paxos", model: types.CrashOnly, proposal: types.MsgPaxosAccept,
		build: func(c *cluster, id types.NodeID, reserved func(uint64) bool, m *obs.EngineMetrics) engine {
			return paxos.New(paxos.Config{Topology: c.topo, Cluster: 0, Self: id, Timeout: timeout,
				Reserved: reserved, Obs: m}, ledger.GenesisHash())
		},
		commit: func(c *cluster, _ types.NodeID, seq uint64, digest, _ types.Hash) []*types.Envelope {
			m := &types.ConsensusMsg{View: 0, Seq: seq, Digest: digest, Cluster: 0}
			return []*types.Envelope{c.envelope(types.MsgPaxosCommit, c.topo.Primary(0, 0), m)}
		},
	},
	{
		name: "pbft", model: types.Byzantine, proposal: types.MsgPrePrepare, firstValueWins: true,
		build: func(c *cluster, id types.NodeID, reserved func(uint64) bool, m *obs.EngineMetrics) engine {
			signer, err := c.keys.SignerFor(id)
			if err != nil {
				c.t.Fatal(err)
			}
			return pbft.New(pbft.Config{Topology: c.topo, Cluster: 0, Self: id, Signer: signer,
				Verifier: c.keys, Timeout: timeout, Reserved: reserved, Obs: m}, ledger.GenesisHash())
		},
		commit: func(c *cluster, to types.NodeID, seq uint64, digest, parent types.Hash) []*types.Envelope {
			m := &types.ConsensusMsg{View: 0, Seq: seq, Digest: digest, Cluster: 0,
				PrevHashes: []types.Hash{parent}}
			var out []*types.Envelope
			for _, id := range consensus.Others(c.topo.Members(0), to)[:2*c.topo.F(0)+1] {
				out = append(out, c.envelope(types.MsgCommit, id, m))
			}
			return out
		},
	},
}

// cluster drives one cluster of engines deterministically: outbound messages
// are queued and delivered in FIFO order.
type cluster struct {
	t        *testing.T
	fl       flavor
	topo     *consensus.Topology
	keys     *crypto.Keyring
	engines  map[types.NodeID]engine
	metrics  map[types.NodeID]*obs.EngineMetrics
	reserved map[types.NodeID]map[uint64]bool
	queue    []routed
	decided  map[types.NodeID][]consensus.Decision
	now      time.Time
}

type routed struct {
	to  types.NodeID
	env *types.Envelope
}

func newCluster(t *testing.T, fl flavor) *cluster {
	c := &cluster{
		t: t, fl: fl,
		topo:     consensus.UniformTopology(fl.model, 1, 1),
		keys:     crypto.NewKeyring(),
		engines:  make(map[types.NodeID]engine),
		metrics:  make(map[types.NodeID]*obs.EngineMetrics),
		reserved: make(map[types.NodeID]map[uint64]bool),
		decided:  make(map[types.NodeID][]consensus.Decision),
		now:      time.Unix(0, 0),
	}
	rng := rand.New(rand.NewSource(1))
	for _, id := range c.topo.AllNodes() {
		if err := c.keys.Generate(id, rng); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range c.topo.AllNodes() {
		c.engines[id] = c.build(id)
	}
	return c
}

// build makes a fresh engine for id, wired to the cluster's reservation
// table and metrics.
func (c *cluster) build(id types.NodeID) engine {
	res := make(map[uint64]bool)
	c.reserved[id] = res
	c.metrics[id] = obs.NewEngineMetrics(obs.NewRegistry(), "eng")
	return c.fl.build(c, id, func(seq uint64) bool { return res[seq] }, c.metrics[id])
}

func (c *cluster) primary() types.NodeID { return c.topo.Primary(0, 0) }
func (c *cluster) backup() types.NodeID  { return c.topo.Members(0)[1] }

// envelope encodes m from `from`, signed when the engine signs.
func (c *cluster) envelope(typ types.MsgType, from types.NodeID, m *types.ConsensusMsg) *types.Envelope {
	payload := m.Encode(nil)
	env := &types.Envelope{Type: typ, From: from, Payload: payload}
	if c.fl.model == types.Byzantine {
		signer, err := c.keys.SignerFor(from)
		if err != nil {
			c.t.Fatal(err)
		}
		env.Sig = signer.Sign(payload)
	}
	return env
}

func (c *cluster) send(outs []consensus.Outbound) {
	for _, o := range outs {
		for _, to := range o.To {
			c.queue = append(c.queue, routed{to: to, env: o.Env})
		}
	}
}

// deliver steps every queued message addressed to `to` in outs.
func (c *cluster) deliver(to types.NodeID, outs []consensus.Outbound) []consensus.Decision {
	var decs []consensus.Decision
	for _, o := range outs {
		for _, dst := range o.To {
			if dst == to {
				replies, d := c.engines[to].Step(o.Env, c.now)
				c.send(replies)
				decs = append(decs, d...)
			}
		}
	}
	c.decided[to] = append(c.decided[to], decs...)
	return decs
}

// pump delivers queued messages until quiescence.
func (c *cluster) pump() {
	for len(c.queue) > 0 {
		m := c.queue[0]
		c.queue = c.queue[1:]
		outs, decs := c.engines[m.to].Step(m.env, c.now)
		c.send(outs)
		c.decided[m.to] = append(c.decided[m.to], decs...)
	}
}

func tx(seq uint64) *types.Transaction {
	return &types.Transaction{
		ID:       types.TxID{Client: types.ClientIDBase + 1, Seq: seq},
		Client:   types.ClientIDBase + 1,
		Ops:      []types.Op{{From: 0, To: 1, Amount: int64(seq)}},
		Involved: types.ClusterSet{0},
	}
}

func batch(txs ...*types.Transaction) []*types.Transaction { return txs }

var cases = []struct {
	name string
	run  func(t *testing.T, c *cluster)
}{
	{"SyncChainHeadResetsPipeline", func(t *testing.T, c *cluster) {
		p := c.engines[c.primary()]
		outs, _ := p.Propose(batch(tx(1)), c.now)
		c.send(outs)
		c.pump()
		// The primary pipelines seq 2 and 3; they never commit.
		p.Propose(batch(tx(2)), c.now)
		p.Propose(batch(tx(3)), c.now)
		// An external (cross-shard) block takes seq 2.
		external := types.HashBytes([]byte("cross-block"))
		_, _, orphans := p.SyncChainHead(2, external, c.now)
		if len(orphans) != 2 {
			t.Fatalf("%d orphans, want 2 (the dead pipeline)", len(orphans))
		}
		if seq, head := p.ProposedHead(); seq != 2 || head != external {
			t.Fatalf("pipeline not reset: seq=%d", seq)
		}
		// The next proposal chains to the external block at seq 3.
		if _, seq := p.Propose(batch(tx(4)), c.now); seq != 3 {
			t.Fatalf("next proposal at seq %d, want 3", seq)
		}
	}},
	{"OutOfOrderDeliveryParksAndRecovers", func(t *testing.T, c *cluster) {
		p := c.engines[c.primary()]
		outs1, _ := p.Propose(batch(tx(1)), c.now)
		outs2, _ := p.Propose(batch(tx(2)), c.now)
		// Deliver proposal 2 before proposal 1 at one backup.
		c.deliver(c.backup(), append(outs2, outs1...))
		c.pump()
		if seq, _ := c.engines[c.backup()].ProposedHead(); seq != 2 {
			t.Fatalf("backup proposedSeq %d, want 2 (parked proposal replayed)", seq)
		}
	}},
	{"CommitBeforeAcceptBuffered", func(t *testing.T, c *cluster) {
		outs, _ := c.engines[c.primary()].Propose(batch(tx(1)), c.now)
		b := c.engines[c.backup()]
		// The commit reaches the backup BEFORE the proposal (network
		// reordering).
		for _, env := range c.fl.commit(c, c.backup(), 1, types.BatchDigest(batch(tx(1))), ledger.GenesisHash()) {
			if _, decs := b.Step(env, c.now); len(decs) != 0 {
				t.Fatal("decided without the transaction body")
			}
		}
		if !b.HasUncommitted() {
			t.Fatal("a slot known committed without its body does not count as uncommitted")
		}
		// Now the proposal arrives: the buffered commit completes the slot.
		decs := c.deliver(c.backup(), outs)
		if len(decs) != 1 || decs[0].Block.Txs[0].ID.Seq != 1 {
			t.Fatalf("reordered commit+proposal did not decide: %v", decs)
		}
	}},
	{"StaleProposalRejected", func(t *testing.T, c *cluster) {
		// A proposal whose parent does not extend the backup's chain.
		m := &types.ConsensusMsg{
			View: 0, Seq: 1, Digest: types.BatchDigest(batch(tx(9))), Cluster: 0,
			PrevHashes: []types.Hash{types.HashBytes([]byte("bogus"))},
			Txs:        batch(tx(9)),
		}
		outs, decs := c.engines[c.backup()].Step(c.envelope(c.fl.proposal, c.primary(), m), c.now)
		if len(outs) != 0 || len(decs) != 0 {
			t.Fatal("backup voted for a proposal that does not extend its chain")
		}
	}},
	{"RestoredSlotsNotReused", func(t *testing.T, c *cluster) {
		// The primary restarts holding acceptances at seq 1 and 2 (the second
		// chaining onto the first) and must propose its next batch above them.
		b1 := &types.Block{Txs: batch(tx(1)), Parents: []types.Hash{ledger.GenesisHash()}}
		b2 := &types.Block{Txs: batch(tx(2)), Parents: []types.Hash{b1.Hash()}}
		insts := []consensus.DurableInstance{
			{Seq: 1, View: 0, Parent: ledger.GenesisHash(), Digest: b1.BatchDigest(), Txs: b1.Txs},
			{Seq: 2, View: 0, Parent: b1.Hash(), Digest: b2.BatchDigest(), Txs: b2.Txs},
		}
		p := c.build(c.primary())
		p.Restore(0, 0, insts, c.now)
		if seq, head := p.ProposedHead(); seq != 2 || head != b2.Hash() {
			t.Fatalf("restored proposal chain at seq %d, want 2", seq)
		}
		if !p.HasUncommitted() {
			t.Fatal("restored acceptances do not count as uncommitted")
		}
		if _, seq := p.Propose(batch(tx(3)), c.now); seq != 3 {
			t.Fatalf("restarted primary proposed at seq %d, want 3", seq)
		}
	}},
	{"SecondValueInViewPolicy", func(t *testing.T, c *cluster) {
		// A backup restarts holding an acceptance at seq 1 in view 0 that it
		// had discarded before the crash (its parent lost the slot race).
		stale := batch(tx(8))
		b := c.build(c.backup())
		b.Restore(0, 0, []consensus.DurableInstance{{Seq: 1, View: 0,
			Parent: types.HashBytes([]byte("lost")), Digest: types.BatchDigest(stale), Txs: stale}}, c.now)
		// The primary proposes a different value at seq 1 in the same view.
		m := &types.ConsensusMsg{View: 0, Seq: 1, Digest: types.BatchDigest(batch(tx(9))), Cluster: 0,
			PrevHashes: []types.Hash{ledger.GenesisHash()}, Txs: batch(tx(9))}
		outs, _ := b.Step(c.envelope(c.fl.proposal, c.primary(), m), c.now)
		if voted := len(outs) > 0; voted == c.fl.firstValueWins {
			t.Fatalf("voted=%v for a second value in one view; first value wins=%v", voted, c.fl.firstValueWins)
		}
	}},
	{"StragglerVoteDropped", func(t *testing.T, c *cluster) {
		outs, _ := c.engines[c.primary()].Propose(batch(tx(1)), c.now)
		c.send(outs)
		c.pump()
		b := c.engines[c.backup()]
		if len(c.decided[c.backup()]) != 1 {
			t.Fatalf("backup decided %d blocks, want 1", len(c.decided[c.backup()]))
		}
		// A vote for the delivered slot arrives late.
		before := c.metrics[c.backup()].Stragglers().Load()
		straggler := c.fl.commit(c, c.backup(), 1, types.BatchDigest(batch(tx(1))), ledger.GenesisHash())[0]
		if outs, decs := b.Step(straggler, c.now); len(outs) != 0 || len(decs) != 0 {
			t.Fatal("straggler vote produced output")
		}
		if n := c.metrics[c.backup()].Stragglers().Load() - before; n != 1 {
			t.Fatalf("straggler drops rose by %d, want 1", n)
		}
		if b.HasUncommitted() {
			t.Fatal("straggler vote resurrected its delivered slot")
		}
	}},
	{"ReservedSlotParksUntilTick", func(t *testing.T, c *cluster) {
		// The backup's cross-shard engine holds its vote for slot 1.
		c.reserved[c.backup()][1] = true
		outs, _ := c.engines[c.primary()].Propose(batch(tx(1)), c.now)
		c.send(outs)
		c.pump()
		b := c.engines[c.backup()]
		if len(c.decided[c.backup()]) != 0 {
			t.Fatal("backup decided at a reserved slot")
		}
		if seq, _ := b.ProposedHead(); seq != 0 {
			t.Fatalf("backup accepted a proposal at a reserved slot (proposed seq %d)", seq)
		}
		// The reservation clears without a chain advance (cross-shard
		// abort): the next tick replays the parked proposal, and the commit
		// the rest of the cluster already reached delivers it.
		delete(c.reserved[c.backup()], 1)
		c.now = c.now.Add(time.Millisecond)
		outs, decs := b.Tick(c.now)
		if len(decs) != 1 || decs[0].Seq != 1 || decs[0].Block.Txs[0].ID.Seq != 1 {
			t.Fatalf("tick after the reservation cleared delivered %v, want seq 1", decs)
		}
		if len(outs) == 0 {
			t.Fatal("replayed proposal drew no vote")
		}
	}},
	{"StuckViewChangeEscalates", func(t *testing.T, c *cluster) {
		b := c.engines[c.backup()]
		// The vote for view 1 is lost: the view never installs.
		if outs := b.SuspectPrimary(c.now); len(outs) == 0 {
			t.Fatal("suspicion produced no view-change vote")
		}
		if outs, _ := b.Tick(c.now.Add(2*timeout - time.Millisecond)); len(outs) != 0 {
			t.Fatal("escalated before twice the timeout")
		}
		outs, _ := b.Tick(c.now.Add(2*timeout + time.Millisecond))
		if len(outs) != 1 || outs[0].Env.Type != types.MsgViewChange {
			t.Fatalf("stuck view change did not escalate: %v", outs)
		}
		vc, err := types.DecodeViewChange(outs[0].Env.Payload)
		if err != nil || vc.NewView != 2 {
			t.Fatalf("escalated to view %d (err %v), want promised+1 = 2", vc.NewView, err)
		}
	}},
}

// TestEngines runs the replicated-log behaviour consensus.Log gives both
// intra-shard engines against each of them.
func TestEngines(t *testing.T) {
	for _, tc := range cases {
		for _, fl := range flavors {
			t.Run(tc.name+"/"+fl.name, func(t *testing.T) { tc.run(t, newCluster(t, fl)) })
		}
	}
}
