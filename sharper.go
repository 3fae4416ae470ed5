// Package sharper is a Go implementation of SharPer, the permissioned
// blockchain system of Amiri, Agrawal, and El Abbadi ("SharPer: Sharding
// Permissioned Blockchains Over Network Clusters", SIGMOD 2021).
//
// SharPer partitions the nodes of a permissioned blockchain into clusters
// of 2f+1 crash-only or 3f+1 Byzantine nodes, assigns one data shard to
// each cluster, and represents the ledger as a directed acyclic graph of
// single-transaction blocks in which every cluster maintains only its own
// view. Intra-shard transactions are ordered by per-cluster consensus
// (Paxos or PBFT); cross-shard transactions are ordered by a flattened
// consensus protocol among all and only the involved clusters, so
// cross-shard transactions over disjoint cluster sets commit in parallel.
//
// The package runs a full deployment on a simulated network fabric with
// configurable latency, fault injection, and a per-node processing-cost
// model, which makes it suitable for protocol research, benchmarking, and
// teaching. See DESIGN.md for the mapping from the paper's sections to the
// packages under internal/.
//
// # Quick start
//
//	net, err := sharper.New(sharper.Options{
//		Model:    sharper.CrashOnly,
//		Clusters: 4,
//		F:        1,
//	})
//	if err != nil { ... }
//	defer net.Close()
//
//	client := net.NewClient()
//	res, err := client.Transfer(
//		net.AccountInShard(0, 0), // from, shard 0
//		net.AccountInShard(1, 0), // to, shard 1 → cross-shard
//		42,
//	)
package sharper

import (
	"fmt"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/core"
	"sharper/internal/ledger"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// FailureModel selects the fault assumption of a deployment.
type FailureModel = types.FailureModel

// Failure models.
const (
	// CrashOnly tolerates f stop failures per cluster of 2f+1 nodes, using
	// Paxos intra-shard and Algorithm 1 cross-shard.
	CrashOnly = types.CrashOnly
	// Byzantine tolerates f arbitrary failures per cluster of 3f+1 nodes,
	// using PBFT intra-shard and Algorithm 2 cross-shard.
	Byzantine = types.Byzantine
)

// AccountID names an account in the account-based data model.
type AccountID = types.AccountID

// Op is a single transfer inside a transaction.
type Op = types.Op

// ClusterID identifies a cluster and its data shard.
type ClusterID = types.ClusterID

// Transport selects the message fabric a deployment runs over.
type Transport int

const (
	// TransportSim is the in-process simulated fabric with modelled latency,
	// fault injection, and per-message processing cost — the default, and
	// what tests and benchmarks use.
	TransportSim Transport = iota
	// TransportTCP runs every replica on its own loopback TCP socket:
	// length-prefixed, HMAC-authenticated frames between real listeners.
	// Same API, real wire. For a deployment of separate OS processes (one
	// replica per process, on loopback or a LAN), see cmd/sharperd's
	// -topology/-listen mode.
	TransportTCP
)

// MaxBatchSize is the upper bound on Options.BatchSize: the flattened
// cross-shard protocol carries per-transaction validity verdicts as a 64-bit
// bitmap, so larger blocks cannot be voted on (see DESIGN.md).
const MaxBatchSize = core.MaxBatchSize

// SyncPolicy selects when a durable deployment fsyncs its write-ahead log.
// Every policy writes records before the message they vouch for leaves the
// node, so killing a replica process loses nothing; the policies trade
// throughput against what an OS or power failure can take (see DESIGN.md,
// "Durable storage").
type SyncPolicy = storage.SyncPolicy

// Sync policies for Options.Sync.
const (
	// SyncGroup (the default) batches fsyncs: a background flusher syncs
	// acknowledged acceptor state every 50ms, so an OS crash can lose at
	// most that window (a killed process loses nothing).
	SyncGroup = storage.SyncGroup
	// SyncNone never fsyncs; the kernel writes back on its own schedule.
	SyncNone = storage.SyncNone
	// SyncAlways fsyncs every record before the ack leaves.
	SyncAlways = storage.SyncAlways
)

// NetworkOptions tunes the simulated fabric.
type NetworkOptions struct {
	// IntraClusterLatency is the one-way delay inside a cluster.
	IntraClusterLatency time.Duration
	// CrossClusterLatency is the one-way delay between clusters.
	CrossClusterLatency time.Duration
	// ClientLatency is the one-way client↔replica delay.
	ClientLatency time.Duration
	// DropProb drops each message with this probability.
	DropProb float64
	// ProcessingTime is the per-message service cost at each replica.
	ProcessingTime time.Duration
}

// Options configures a deployment.
type Options struct {
	// Model is the failure assumption (CrashOnly or Byzantine).
	Model FailureModel
	// Clusters is the number of clusters |P| (= number of shards).
	Clusters int
	// F is the per-cluster fault bound; cluster size follows from Model.
	F int
	// AccountsPerShard seeds this many accounts per shard at genesis.
	AccountsPerShard int
	// InitialBalance is each seeded account's starting balance.
	InitialBalance int64
	// DisableSuperPrimary turns off the §3.2 super-primary routing rule.
	DisableSuperPrimary bool
	// Transport selects the fabric: TransportSim (default) or TransportTCP.
	Transport Transport
	// Network tunes the simulated fabric; zero values take defaults.
	// Ignored under TransportTCP (real sockets have real latency).
	Network NetworkOptions
	// Multiregion shapes every link after the paper's cross-datacenter
	// setup — sub-millisecond intra-cluster links, ~30ms / 200Mbps between
	// clusters — on either transport (the simulated fabric models the
	// delays; TCP fabrics shape their real sockets). It overrides the
	// scalar Network latencies.
	Multiregion bool
	// Seed drives all randomness; runs with equal seeds are comparable.
	Seed int64
	// Plan overrides the uniform cluster layout, e.g. the §3.4
	// group-aware plan built with PlanClusters.
	Plan *Plan
	// BatchSize caps the number of transactions per block (one consensus
	// instance orders the whole batch). The default of 1 reproduces the
	// paper's single-transaction blocks; larger values amortize the quorum
	// message cost and raise saturation throughput. Values above
	// MaxBatchSize (64, the cross-shard validity-bitmap width) are rejected
	// by New with an error. See DESIGN.md, "Batched blocks".
	BatchSize int
	// BatchTimeout bounds how long a partial batch waits for more requests
	// while earlier instances are in flight (default 2ms). A batch never
	// waits when the pipeline is empty.
	BatchTimeout time.Duration
	// MaxInFlight bounds pipelined consensus instances per cluster
	// (default 8).
	MaxInFlight int
	// VerifyWindow is each node's signature batch-verification window: up
	// to this many queued envelopes are verified per batch, with bisection
	// recovering exact per-envelope verdicts when a batch fails. 1 verifies
	// strictly per signature; 0 takes the SHARPER_VERIFY_WINDOW override,
	// defaulting to crypto.DefaultVerifyWindow.
	VerifyWindow int
	// InlineCommit restores the pre-pipeline synchronous commit path (the
	// event loop applies, persists, and replies between consensus
	// messages) in place of the commit pipeline, for A/B comparison.
	InlineCommit bool
	// DataDir enables durable storage: every replica keeps a write-ahead
	// log and periodic checkpoints under DataDir/node-<id>, and a replica
	// restarted over the same directory (RestartNode, or a new process for
	// sharperd deployments) recovers its chain, balances, and consensus
	// obligations from disk, then fetches only the delta via chain sync.
	// Empty (the default) runs in-memory; setting SHARPER_PERSIST=1 in the
	// environment turns persistence on for such deployments too (CI runs
	// the whole suite that way).
	DataDir string
	// Sync is the write-ahead-log fsync policy (default SyncGroup).
	Sync SyncPolicy
	// CheckpointInterval is the number of committed blocks between
	// checkpoints (default 256).
	CheckpointInterval int
	// Ed25519 switches Byzantine deployments from the default HMAC
	// authenticators to real ed25519 signatures. Slower, but fraud proofs
	// minted under it are verifiable by third parties holding only public
	// keys.
	Ed25519 bool
	// Slash arms the equivocation-detecting auditor on every replica:
	// conflicting signed claims (double proposals, double votes, conflicting
	// view-change histories) are turned into fraud proofs, gossiped
	// cluster-wide, persisted to the evidence log when DataDir is set, and
	// exposed through FraudProofs. See DESIGN.md, "Adversary model &
	// slashing".
	Slash bool
}

// Network is a running SharPer deployment.
type Network struct {
	d *core.Deployment
}

// New builds and starts a deployment.
func New(opts Options) (*Network, error) {
	if opts.BatchSize > MaxBatchSize {
		return nil, fmt.Errorf("sharper: BatchSize %d exceeds MaxBatchSize %d (the cross-shard validity bitmap is %d bits wide)",
			opts.BatchSize, MaxBatchSize, MaxBatchSize)
	}
	if opts.AccountsPerShard <= 0 {
		opts.AccountsPerShard = 1024
	}
	if opts.InitialBalance == 0 {
		opts.InitialBalance = 1 << 40
	}
	netCfg := transport.DefaultConfig()
	if opts.Network.IntraClusterLatency > 0 {
		netCfg.IntraClusterLatency = opts.Network.IntraClusterLatency
	}
	if opts.Network.CrossClusterLatency > 0 {
		netCfg.CrossClusterLatency = opts.Network.CrossClusterLatency
	}
	if opts.Network.ClientLatency > 0 {
		netCfg.ClientLatency = opts.Network.ClientLatency
	}
	if opts.Network.DropProb > 0 {
		netCfg.DropProb = opts.Network.DropProb
	}
	if opts.Network.ProcessingTime > 0 {
		netCfg.ProcessingTime = opts.Network.ProcessingTime
	}
	cfg := core.Config{
		Model:               opts.Model,
		Clusters:            opts.Clusters,
		F:                   opts.F,
		Transport:           core.TransportKind(opts.Transport),
		Network:             netCfg,
		DisableSuperPrimary: opts.DisableSuperPrimary,
		Seed:                opts.Seed,
		BatchSize:           opts.BatchSize,
		BatchTimeout:        opts.BatchTimeout,
		MaxInFlight:         opts.MaxInFlight,
		VerifyWindow:        opts.VerifyWindow,
		InlineCommit:        opts.InlineCommit,
		DataDir:             opts.DataDir,
		Sync:                opts.Sync,
		CheckpointInterval:  opts.CheckpointInterval,
		Ed25519:             opts.Ed25519,
		Slash:               opts.Slash,
	}
	if opts.Multiregion {
		cfg.Shaping = transport.Multiregion()
	}
	if opts.Plan != nil {
		cfg.Topology = opts.Plan.topo
	}
	d, err := core.NewDeployment(cfg)
	if err != nil {
		return nil, err
	}
	d.SeedAccounts(opts.AccountsPerShard, opts.InitialBalance)
	d.Start()
	return &Network{d: d}, nil
}

// Close stops every node and tears down the fabric.
func (n *Network) Close() { n.d.Stop() }

// Clusters returns the number of clusters (= shards).
func (n *Network) Clusters() int { return len(n.d.Topo.Clusters) }

// AccountInShard returns the k-th seeded account of the given shard, so
// callers can construct intra- or cross-shard transfers deliberately.
func (n *Network) AccountInShard(shard ClusterID, k uint64) AccountID {
	return n.d.Shards.AccountInShard(shard, k)
}

// ShardOf returns the shard that stores the account.
func (n *Network) ShardOf(a AccountID) ClusterID { return n.d.Shards.Cluster(a) }

// Balance reads an account's balance from a replica of its shard.
// It is a direct state read, not an ordered transaction.
func (n *Network) Balance(a AccountID) int64 {
	c := n.d.Shards.Cluster(a)
	return n.d.Node(n.d.Topo.Members(c)[0]).Store().Balance(a)
}

// DAG assembles the union blockchain ledger (Fig. 2a) from one
// representative view per cluster, for inspection and audits.
func (n *Network) DAG() *ledger.DAG { return n.d.DAG() }

// SchedStats returns the deployment-wide aggregate of every replica's
// cross-shard scheduler counters (leads in flight, conflict-table size,
// parks, withdraws, deferral precision) — the conflict-aware scheduler's
// observability surface. Call it on a quiesced (or closed) network; a
// running deployment is probed over the wire instead (MsgStatsRequest),
// which each replica's event loop answers itself.
func (n *Network) SchedStats() types.SchedStats {
	var agg types.SchedStats
	for _, node := range n.d.Nodes() {
		agg.Add(node.Counters())
	}
	return agg
}

// FraudProofs returns every distinct fraud proof the deployment's slashers
// hold (empty unless Options.Slash; gossip deduplicated). Call it on a
// quiesced (or closed) network, like SchedStats.
func (n *Network) FraudProofs() []*types.FraudProof { return n.d.FraudProofs() }

// Verify checks ledger consistency across all clusters: per-view hash
// chains, cross-shard agreement, and pairwise commit order. Call it on a
// quiesced network.
func (n *Network) Verify() error {
	dag := n.d.DAG()
	if err := dag.Verify(); err != nil {
		return err
	}
	return dag.VerifyPairwiseOrder()
}

// CrashNode simulates the crash of one replica of the given cluster
// (0 ≤ idx < cluster size). Consensus keeps making progress while at most f
// replicas per cluster are down; crashing a primary triggers a view change.
func (n *Network) CrashNode(cluster ClusterID, idx int) error {
	members := n.d.Topo.Members(cluster)
	if idx < 0 || idx >= len(members) {
		return fmt.Errorf("sharper: cluster %s has no member %d", cluster, idx)
	}
	n.d.CrashNode(members[idx])
	return nil
}

// RestartNode restarts a (typically crashed) replica as if its process had
// been killed and relaunched: with Options.DataDir set the replica recovers
// its chain, balances, and consensus obligations from disk and then fetches
// only what it missed via chain sync; without durable storage it rejoins
// empty and resyncs from genesis. Simulated transport only.
func (n *Network) RestartNode(cluster ClusterID, idx int) error {
	members := n.d.Topo.Members(cluster)
	if idx < 0 || idx >= len(members) {
		return fmt.Errorf("sharper: cluster %s has no member %d", cluster, idx)
	}
	_, err := n.d.RestartNode(members[idx])
	return err
}

// Result reports the outcome of a submitted transaction.
type Result struct {
	// Committed is true when the transaction's effects were applied; false
	// means it was ordered but rejected by validation (e.g. overdraft).
	Committed bool
	// CrossShard reports whether the transaction spanned clusters.
	CrossShard bool
	// Latency is the end-to-end client-observed time.
	Latency time.Duration
}

// Client issues transactions against the deployment. Each client is a
// single closed-loop issuer; create one per concurrent goroutine.
type Client struct {
	n *Network
	c *core.Client
}

// NewClient registers a new client endpoint.
func (n *Network) NewClient() *Client {
	return &Client{n: n, c: n.d.NewClient()}
}

// SetRetry adjusts the client's per-attempt reply timeout and its attempt
// budget (default 2s × 8). Fault-injection tests that must ride out view
// changes under heavy machine load scale the budget up instead of racing a
// fixed deadline.
func (c *Client) SetRetry(timeout time.Duration, attempts int) {
	if timeout > 0 {
		c.c.Timeout = timeout
	}
	if attempts > 0 {
		c.c.MaxAttempts = attempts
	}
}

// Transfer moves amount from one account to another, waiting for the reply
// quorum. The involved-cluster set is derived from the accounts: same shard
// → intra-shard consensus, different shards → flattened cross-shard
// consensus.
func (c *Client) Transfer(from, to AccountID, amount int64) (Result, error) {
	return c.Submit([]Op{{From: from, To: to, Amount: amount}})
}

// Submit executes a multi-op transaction atomically.
func (c *Client) Submit(ops []Op) (Result, error) {
	tx := c.c.MakeTx(ops)
	committed, lat, err := c.c.Submit(tx)
	return Result{
		Committed:  committed,
		CrossShard: tx.IsCrossShard(),
		Latency:    lat,
	}, err
}

// Submit outcomes surfaced by gateway clients.
var (
	// ErrOverloaded: the gateway's mempool shed the submit under admission
	// control; back off and retry later.
	ErrOverloaded = core.ErrOverloaded
	// ErrExpired: the transaction's timestamp fell outside the mempool TTL;
	// re-issue with a fresh timestamp.
	ErrExpired = core.ErrExpired
)

// GatewayClient issues transactions through the client-ingress plane
// (MsgSubmit → per-shard mempool → sealer) instead of the direct request
// path: submits are routed shard-aware to the owning cluster's gateways,
// admitted into byte- and count-capped pools, and answered per transaction —
// including explicit Overloaded / Expired verdicts when admission control
// sheds. Create one per concurrent goroutine, like Client.
type GatewayClient struct {
	n *Network
	c *core.GatewayClient
}

// NewGatewayClient registers a new gateway-client endpoint.
func (n *Network) NewGatewayClient() *GatewayClient {
	return &GatewayClient{n: n, c: n.d.NewGatewayClient()}
}

// SetRetry adjusts the client's per-attempt reply timeout and its attempt
// budget (default 2s × 8), like Client.SetRetry.
func (c *GatewayClient) SetRetry(timeout time.Duration, attempts int) {
	if timeout > 0 {
		c.c.Timeout = timeout
	}
	if attempts > 0 {
		c.c.MaxAttempts = attempts
	}
}

// Transfer moves amount between accounts through the gateway path.
func (c *GatewayClient) Transfer(from, to AccountID, amount int64) (Result, error) {
	return c.Submit([]Op{{From: from, To: to, Amount: amount}})
}

// Submit executes a multi-op transaction atomically through the gateway
// path. Admission sheds return ErrOverloaded or ErrExpired.
func (c *GatewayClient) Submit(ops []Op) (Result, error) {
	tx := c.c.MakeTx(ops)
	committed, lat, err := c.c.Submit(tx)
	return Result{
		Committed:  committed,
		CrossShard: tx.IsCrossShard(),
		Latency:    lat,
	}, err
}

// Plan is a cluster layout, possibly heterogeneous (§3.4): groups with
// known, different fault bounds yield more clusters than a single global f.
type Plan struct {
	topo *consensus.Topology
}

// Group describes one node group for PlanClusters.
type Group struct {
	// Nodes is the group's size.
	Nodes int
	// F is the group's fault bound.
	F int
}

// PlanClusters builds the §3.4 group-aware plan: each group is partitioned
// independently into clusters of Model.ClusterSize(group.F), with leftover
// nodes absorbed by the group's last cluster.
func PlanClusters(model FailureModel, groups []Group) (*Plan, error) {
	topo := &consensus.Topology{Model: model, Clusters: map[types.ClusterID]consensus.Cluster{}}
	next := types.NodeID(0)
	cid := types.ClusterID(0)
	for gi, g := range groups {
		size := model.ClusterSize(g.F)
		if g.Nodes < size {
			return nil, fmt.Errorf("sharper: group %d has %d nodes, needs at least %d for f=%d",
				gi, g.Nodes, size, g.F)
		}
		count := g.Nodes / size
		for c := 0; c < count; c++ {
			members := size
			if c == count-1 {
				members = g.Nodes - size*(count-1) // last cluster absorbs leftovers
			}
			cl := consensus.Cluster{ID: cid, F: g.F}
			for i := 0; i < members; i++ {
				cl.Members = append(cl.Members, next)
				next++
			}
			topo.Clusters[cid] = cl
			cid++
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return &Plan{topo: topo}, nil
}

// NumClusters returns the number of clusters in the plan.
func (p *Plan) NumClusters() int { return len(p.topo.Clusters) }

// HybridGroup describes one node group for PlanHybridClusters: its size,
// fault bound, and failure model.
type HybridGroup struct {
	// Nodes is the group's size.
	Nodes int
	// F is the group's fault bound.
	F int
	// Model is the group's failure model: crash-only groups form clusters
	// of 2f+1 running Paxos, Byzantine groups clusters of 3f+1 running
	// PBFT.
	Model FailureModel
}

// PlanHybridClusters builds the §3.4 hybrid-cloud plan: clusters with
// different failure models in one deployment (e.g. a private crash-only
// cloud next to a public Byzantine one). Intra-shard consensus follows each
// cluster's own model; cross-shard transactions run the decentralized
// flattened protocol with per-cluster quorums (f+1 from crash clusters,
// 2f+1 from Byzantine ones) and deployment-wide signatures.
func PlanHybridClusters(groups []HybridGroup) (*Plan, error) {
	topo := &consensus.Topology{Model: CrashOnly, Clusters: map[types.ClusterID]consensus.Cluster{}}
	next := types.NodeID(0)
	cid := types.ClusterID(0)
	for gi, g := range groups {
		size := g.Model.ClusterSize(g.F)
		if g.Nodes < size {
			return nil, fmt.Errorf("sharper: hybrid group %d has %d nodes, needs at least %d for f=%d (%s)",
				gi, g.Nodes, size, g.F, g.Model)
		}
		count := g.Nodes / size
		for c := 0; c < count; c++ {
			members := size
			if c == count-1 {
				members = g.Nodes - size*(count-1)
			}
			cl := consensus.Cluster{ID: cid, F: g.F, Model: g.Model, ModelSet: true}
			for i := 0; i < members; i++ {
				cl.Members = append(cl.Members, next)
				next++
			}
			topo.Clusters[cid] = cl
			cid++
		}
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	return &Plan{topo: topo}, nil
}
