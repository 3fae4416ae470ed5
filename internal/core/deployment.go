package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/mempool"
	"sharper/internal/obs"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
)

// TransportKind selects the message fabric a deployment runs over.
type TransportKind int

const (
	// TransportSim is the in-process simulated fabric (internal/transport):
	// modelled latency, fault injection, per-message processing cost. The
	// default, and what tests and benchmarks use.
	TransportSim TransportKind = iota
	// TransportTCP gives every replica its own TCP fabric on a loopback
	// socket (internal/transport/tcpnet): real length-prefixed,
	// HMAC-authenticated frames between real listeners, inside one process.
	// Fault injection is physical — CrashNode closes the victim's sockets.
	TransportTCP
)

// MaxBatchSize is the hard cap on transactions per block: the flattened
// cross-shard protocol carries per-transaction validity verdicts as a 64-bit
// bitmap (ConsensusMsg.Seq), so larger batches cannot be voted on.
const MaxBatchSize = 64

// Config describes a full SharPer deployment: failure model, cluster plan,
// network behaviour, and protocol timers.
type Config struct {
	// Model selects crash (Paxos + Algorithm 1) or Byzantine (PBFT +
	// Algorithm 2).
	Model types.FailureModel
	// Clusters is |P|; ignored if Topology is set.
	Clusters int
	// F is the per-cluster fault bound; ignored if Topology is set.
	F int
	// Topology overrides the uniform plan, e.g. for the §3.4
	// clustered-network optimization.
	Topology *consensus.Topology
	// Transport selects the fabric implementation (default TransportSim).
	Transport TransportKind
	// Network configures the simulated fabric; zero value = DefaultConfig.
	// Ignored under TransportTCP (real sockets have real latency).
	Network transport.Config
	// Shaping applies one per-link delay/bandwidth/loss matrix to whichever
	// fabric the deployment runs over: the simulated network consults it per
	// message, and TCP replicas shape each peer link from it (cluster pairs
	// via each peer's cluster, Client for the driver's links and reply
	// routes). transport.Multiregion() reproduces the paper's
	// cross-datacenter setup. Nil leaves both fabrics unshaped.
	Shaping *transport.Shaping
	// SuperPrimary enables §3.2 super-primary routing (default on via
	// NewDeployment unless DisableSuperPrimary).
	DisableSuperPrimary bool
	// Timers; zero values take defaults.
	IntraTimeout time.Duration
	LockTimeout  time.Duration
	RetryTimeout time.Duration
	TickInterval time.Duration
	// Batching and pipelining knobs; zero values take defaults (see
	// NodeConfig).
	BatchSize    int
	BatchTimeout time.Duration
	MaxInFlight  int
	// VerifyWindow is the signature batch-verification window of every
	// node's verify pool: 1 verifies strictly per signature, larger windows
	// batch-verify with bisection on failure. 0 takes the
	// SHARPER_VERIFY_WINDOW override, defaulting to
	// crypto.DefaultVerifyWindow. See NodeConfig.VerifyWindow.
	VerifyWindow int
	// InlineCommit restores the pre-pipeline synchronous commit path (the
	// event loop applies, persists, and replies inline) so benchmarks can
	// A/B the commit pipeline against it.
	InlineCommit bool
	// PipelineDepth bounds each node's commit-pipeline queue (0 takes the
	// NodeConfig default); tests shrink it to exercise backpressure.
	PipelineDepth int
	// Seed drives all randomness (keys, jitter, fault injection).
	Seed int64
	// Ed25519 switches Byzantine deployments from the default HMAC
	// authenticators (PBFT's normal-case MAC vectors) to real ed25519
	// signatures. MACs are the faithful performance model; signatures cost
	// two orders of magnitude more CPU.
	Ed25519 bool

	// DataDir enables durable storage: every replica keeps a write-ahead
	// log and periodic checkpoints under DataDir/node-<id>, recovers from
	// them when rebuilt over the same directory, and can be restarted in
	// place with RestartNode. Empty means in-memory — unless the
	// SHARPER_PERSIST environment override is set (see below).
	DataDir string
	// Sync is the WAL fsync policy (default storage.SyncGroup).
	Sync storage.SyncPolicy
	// CheckpointInterval is the number of committed blocks between
	// checkpoints (default 256).
	CheckpointInterval int
	// NoPersist opts this deployment out of the SHARPER_PERSIST override —
	// for benchmarks that need a true in-memory baseline next to durable
	// configurations in the same process.
	NoPersist bool

	// NoMetrics disables the per-node observability registries. Metrics are
	// on by default (the hot path costs one atomic per event), so every
	// deployment is scrapeable; the overhead benchmark flips this for its
	// A/B baseline.
	NoMetrics bool
	// TraceSample is the lifecycle tracer's 1-in-N sampling rate (0 takes
	// obs.DefaultTraceSample, 1 traces everything). Ignored under NoMetrics.
	TraceSample int

	// Mempool bounds every replica's client-ingress gateway pool (byte/count
	// caps over pending + in-flight, TTL, committed dedup window); zero
	// fields take the mempool package defaults. See NodeConfig.Mempool.
	Mempool mempool.Config

	// Slash arms the equivocation-detecting auditor on every replica: nodes
	// index inbound consensus envelopes, mint signed fraud proofs from
	// conflicting claims, gossip them cluster-wide, and persist them to the
	// evidence log when storage is on. See internal/slasher.
	Slash bool
	// WrapFabric, when set, decorates each replica's fabric before the node
	// registers on it — the seam the adversary harness uses to compromise
	// nodes (internal/adversary). It runs under both transports and is
	// re-applied when RestartNode rebuilds a replica. Clients are not
	// wrapped.
	WrapFabric func(types.NodeID, transport.Fabric) transport.Fabric
}

// resolvePersistence decides the deployment's storage configuration. An
// explicit DataDir wins; otherwise SHARPER_PERSIST re-runs any deployment
// with durability on (mirroring SHARPER_BATCH): a temporary directory is
// created, owned, and removed at Stop. SHARPER_PERSIST's value may name the
// sync policy ("1"/"group", "none", "always").
func resolvePersistence(cfg *Config) (dataDir string, owned bool, err error) {
	if cfg.DataDir != "" {
		return cfg.DataDir, false, nil
	}
	v := os.Getenv("SHARPER_PERSIST")
	if v == "" || v == "0" || cfg.NoPersist {
		return "", false, nil
	}
	p, err := storage.ParseSyncPolicy(v)
	if err != nil {
		// A typo must not silently test a different durability policy.
		return "", false, fmt.Errorf("core: SHARPER_PERSIST: %w", err)
	}
	cfg.Sync = p
	dir, err := os.MkdirTemp("", "sharper-persist-")
	if err != nil {
		return "", false, err
	}
	return dir, true, nil
}

// Deployment is a running SharPer network: clusters of nodes over a message
// fabric (simulated or TCP), plus factories for clients.
type Deployment struct {
	cfg  Config
	Topo *consensus.Topology
	// Net is the fabric clients attach to: the shared simulated network, or
	// the dial-only client fabric of a TCP deployment.
	Net     transport.Fabric
	Keyring crypto.Provider
	Shards  state.ShardMap

	// fabrics holds each replica's own fabric under TransportTCP (every
	// node listens on its own loopback socket); empty under TransportSim,
	// where all nodes share Net.
	fabrics          map[types.NodeID]*tcpnet.Net
	nodes            map[types.NodeID]*Node
	nodeCfgs         map[types.NodeID]NodeConfig // for RestartNode rebuilds
	clientsConnected atomic.Bool                 // NewClient may run concurrently
	started          bool

	// Durable-storage bookkeeping: the resolved base directory, whether the
	// deployment created it (SHARPER_PERSIST temp dirs are removed at Stop),
	// and the per-store options.
	dataDir     string
	ownsDataDir bool
	storageOpts storage.Options

	// Genesis seeding parameters, remembered so RestartNode can rebuild a
	// replica's genesis state before recovery replays over it.
	seedPerShard int
	seedBalance  int64
}

// NodeDataDir is where one replica's storage lives under a deployment's
// base directory — the single definition of the on-disk layout, shared
// with sharperd's per-process replicas.
func NodeDataDir(base string, id types.NodeID) string {
	return filepath.Join(base, fmt.Sprintf("node-%d", id))
}

// ShapeTune translates a topology-level shaping matrix into per-fabric
// tcpnet link configuration: each replica shapes its outbound link to every
// peer by the two clusters' pair entry, the client driver's links and the
// replicas' reply routes take the Client shape. Returns nil (leave fabrics
// untouched) when shaping is nil — the single translation point shared by
// in-process TCP deployments and sharperd's one-process-per-replica mode.
func ShapeTune(sh *transport.Shaping, seed int64, clusterOf func(types.NodeID) (types.ClusterID, bool)) func(*tcpnet.Config) {
	if sh == nil {
		return nil
	}
	return func(tc *tcpnet.Config) {
		tc.ShapeSeed = seed
		// Dial-only fabrics with no listener are client drivers; their
		// endpoints live outside every cluster.
		isClient := tc.Listener == nil && tc.ListenAddr == ""
		selfCluster, located := types.ClusterID(0), false
		if !isClient {
			selfCluster, located = clusterOf(tc.Self)
		}
		shape := make(map[types.NodeID]transport.LinkShape, len(tc.Peers))
		for id := range tc.Peers {
			if id == tc.Self && !isClient {
				continue
			}
			var s transport.LinkShape
			if isClient || !located {
				s = sh.Client
			} else if pc, ok := clusterOf(id); ok {
				s = sh.For(selfCluster, pc)
			} else {
				s = sh.Default
			}
			if !s.IsZero() {
				shape[id] = s
			}
		}
		if len(shape) > 0 {
			tc.Shape = shape
		}
		if cs := sh.Client; !cs.IsZero() {
			tc.ClientShape = &cs
		}
	}
}

// NewDeployment validates the configuration and builds all nodes (stopped).
func NewDeployment(cfg Config) (*Deployment, error) {
	topo := cfg.Topology
	if topo == nil {
		if cfg.Clusters <= 0 || cfg.F <= 0 {
			return nil, fmt.Errorf("core: Clusters and F must be positive (got %d, %d)", cfg.Clusters, cfg.F)
		}
		topo = consensus.UniformTopology(cfg.Model, cfg.Clusters, cfg.F)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if topo.Model != cfg.Model && !topo.Hybrid() {
		return nil, fmt.Errorf("core: topology model %s != config model %s", topo.Model, cfg.Model)
	}
	if cfg.BatchSize > MaxBatchSize {
		return nil, fmt.Errorf("core: BatchSize %d exceeds the %d-transaction cap (the cross-shard validity bitmap is %d bits wide)",
			cfg.BatchSize, MaxBatchSize, MaxBatchSize)
	}

	var clientNet transport.Fabric
	var fabrics map[types.NodeID]*tcpnet.Net
	nodeFabric := func(types.NodeID) transport.Fabric { return clientNet }
	switch cfg.Transport {
	case TransportSim:
		netCfg := cfg.Network
		if netCfg == (transport.Config{}) {
			netCfg = transport.DefaultConfig()
		}
		if netCfg.Seed == 0 {
			netCfg.Seed = cfg.Seed
		}
		if cfg.Shaping != nil {
			netCfg.Shaping = cfg.Shaping
		}
		clientNet = transport.New(netCfg, func(id types.NodeID) (types.ClusterID, bool) {
			return topo.ClusterOf(id)
		})
	case TransportTCP:
		secret := crypto.WireKey(fmt.Sprintf("loopback-%d", cfg.Seed))
		var clientFab *tcpnet.Net
		var err error
		fabrics, clientFab, err = tcpnet.Loopback(topo.AllNodes(), secret, ShapeTune(cfg.Shaping, cfg.Seed, topo.ClusterOf))
		if err != nil {
			return nil, err
		}
		clientNet = clientFab
		nodeFabric = func(id types.NodeID) transport.Fabric { return fabrics[id] }
	default:
		return nil, fmt.Errorf("core: unknown transport kind %d", cfg.Transport)
	}

	shards := state.ShardMap{NumShards: len(topo.Clusters)}

	dataDir, ownsDir, err := resolvePersistence(&cfg)
	if err != nil {
		return nil, err
	}

	var auth crypto.Provider = crypto.NewMACKeyring()
	if cfg.Ed25519 {
		auth = crypto.NewKeyring()
	}
	d := &Deployment{
		cfg:         cfg,
		Topo:        topo,
		Net:         clientNet,
		Keyring:     auth,
		Shards:      shards,
		fabrics:     fabrics,
		nodes:       make(map[types.NodeID]*Node),
		nodeCfgs:    make(map[types.NodeID]NodeConfig),
		dataDir:     dataDir,
		ownsDataDir: ownsDir,
		storageOpts: storage.Options{Sync: cfg.Sync, CheckpointInterval: cfg.CheckpointInterval},
	}

	// Construction failures must release everything already built: open
	// stores (each with a live flusher goroutine) and an owned temp dir.
	fail := func(err error) (*Deployment, error) {
		d.closeStorages()
		if d.ownsDataDir {
			os.RemoveAll(d.dataDir)
		}
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	// Signatures are required deployment-wide as soon as any cluster runs
	// under the Byzantine model (hybrid deployments, §3.4).
	sign := topo.AnyByzantine()
	for _, id := range topo.AllNodes() {
		var signer crypto.Signer = crypto.NoopSigner{}
		var verifier crypto.Verifier = crypto.NoopSigner{}
		if sign {
			if err := d.Keyring.Generate(id, rng); err != nil {
				return fail(err)
			}
			s, err := d.Keyring.SignerFor(id)
			if err != nil {
				return fail(err)
			}
			signer, verifier = s, d.Keyring
		}
		cluster, _ := topo.ClusterOf(id)
		var reg *obs.Registry
		if !cfg.NoMetrics {
			reg = obs.NewRegistry()
		}
		var st *storage.Store
		if d.dataDir != "" {
			opts := d.storageOpts
			opts.Metrics = obs.NewStoreMetrics(reg)
			var serr error
			st, serr = storage.Open(NodeDataDir(d.dataDir, id), opts)
			if serr != nil {
				return fail(serr)
			}
		}
		fab := nodeFabric(id)
		if cfg.WrapFabric != nil {
			fab = cfg.WrapFabric(id, fab)
		}
		registerSimLinkGauges(reg, clientNet, id)
		ncfg := NodeConfig{
			Model:         topo.ModelOf(cluster),
			Topology:      topo,
			Cluster:       cluster,
			Self:          id,
			Net:           fab,
			Shards:        shards,
			Signer:        signer,
			Verifier:      verifier,
			IntraTimeout:  cfg.IntraTimeout,
			LockTimeout:   cfg.LockTimeout,
			RetryTimeout:  cfg.RetryTimeout,
			TickInterval:  cfg.TickInterval,
			BatchSize:     cfg.BatchSize,
			BatchTimeout:  cfg.BatchTimeout,
			MaxInFlight:   cfg.MaxInFlight,
			InlineCommit:  cfg.InlineCommit,
			PipelineDepth: cfg.PipelineDepth,
			SuperPrimary:  !cfg.DisableSuperPrimary,
			VerifyWindow:  cfg.VerifyWindow,
			Seed:          cfg.Seed + int64(id) + 2,
			Storage:       st,
			Slash:         cfg.Slash,
			Metrics:       reg,
			TraceSample:   cfg.TraceSample,
			Mempool:       cfg.Mempool,
		}
		d.nodeCfgs[id] = ncfg
		d.nodes[id] = NewNode(ncfg)
	}
	return d, nil
}

// registerSimLinkGauges exposes a replica's inbound link counters on its
// registry when the deployment runs over the shared simulated fabric. Each
// node registers only its OWN link, so a fleet merge never double-counts the
// shared network. Pull-style: the callbacks read the fabric's atomics at
// snapshot time. (TCP fabrics expose per-peer stats through
// tcpnet.LinkStats; sharperd bridges those itself.)
func registerSimLinkGauges(reg *obs.Registry, fab transport.Fabric, id types.NodeID) {
	if reg == nil {
		return
	}
	sim, ok := fab.(*transport.Network)
	if !ok {
		return
	}
	link := sim.Link(id)
	reg.GaugeFunc("link_in_sent", func() uint64 { return uint64(link.Sent.Load()) })
	reg.GaugeFunc("link_in_delivered", func() uint64 { return uint64(link.Delivered.Load()) })
	reg.GaugeFunc("link_in_dropped", func() uint64 { return uint64(link.Dropped.Load()) })
	reg.GaugeFunc("link_in_bytes", func() uint64 { return uint64(link.Bytes.Load()) })
	reg.GaugeFunc("link_in_delay_us", func() uint64 { return uint64(link.DelayMicros.Load()) })
	reg.GaugeFunc("link_in_queue_depth", func() uint64 { return uint64(sim.QueueDepth(id)) })
}

// MetricsSnapshot returns the fleet-wide merged registry snapshot of every
// replica (nil when metrics are disabled). Sched gauges refresh on each
// node's tick, so a merged snapshot is at most one tick stale.
func (d *Deployment) MetricsSnapshot() []obs.Metric {
	var snaps [][]obs.Metric
	for _, n := range d.Nodes() {
		if r := n.Metrics(); r != nil {
			snaps = append(snaps, r.Snapshot())
		}
	}
	if len(snaps) == 0 {
		return nil
	}
	return obs.Merge(snaps...)
}

// closeStorages closes every built node's storage (used on construction
// failure and for never-started deployments).
func (d *Deployment) closeStorages() {
	for _, n := range d.nodes {
		n.CloseStorage()
	}
}

// Start runs every node.
func (d *Deployment) Start() {
	if d.started {
		return
	}
	d.started = true
	for _, n := range d.nodes {
		n.Start()
	}
}

// Stop terminates every node, tears the fabric(s) down, closes storage,
// and removes an owned (SHARPER_PERSIST temp) data directory.
func (d *Deployment) Stop() {
	d.Net.Close()
	for _, fab := range d.fabrics {
		fab.Close()
	}
	if d.started {
		for _, n := range d.nodes {
			n.Stop() // closes the node's storage too
		}
		d.started = false
	} else {
		d.closeStorages()
	}
	if d.ownsDataDir {
		os.RemoveAll(d.dataDir)
		d.ownsDataDir = false
	}
}

// DataDir returns the deployment's resolved storage base directory ("" when
// running in-memory).
func (d *Deployment) DataDir() string { return d.dataDir }

// RestartNode models a full process restart of one replica on the simulated
// fabric: the current incarnation is stopped (its in-memory state dies with
// it), a fresh node is built over the same storage directory — recovering
// chain, shard state, and acceptor obligations from checkpoint + log — and
// started; it then rejoins the cluster and fetches whatever it missed
// through the chain-sync protocol. Combine with CrashNode to model the
// crash itself; RestartNode clears the fabric's crash mark. Without a
// DataDir the node restarts empty (and resyncs from genesis).
//
// TCP replicas restart by restarting their process (see cmd/sharperd -data).
func (d *Deployment) RestartNode(id types.NodeID) (*Node, error) {
	if d.fabrics != nil {
		return nil, fmt.Errorf("core: RestartNode needs the simulated fabric; restart a TCP replica by restarting its process")
	}
	if !d.started {
		return nil, fmt.Errorf("core: RestartNode on a stopped deployment")
	}
	old, ok := d.nodes[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown node %s", id)
	}
	old.Stop() // also closes its storage handle
	cfg := d.nodeCfgs[id]
	cfg.Storage = nil
	if d.dataDir != "" {
		// The incarnation keeps its registry (nodeCfgs carries it), so the
		// rebuilt store's handles resolve to the same counters.
		opts := d.storageOpts
		opts.Metrics = obs.NewStoreMetrics(cfg.Metrics)
		st, err := storage.Open(NodeDataDir(d.dataDir, id), opts)
		if err != nil {
			return nil, err
		}
		cfg.Storage = st
	}
	d.nodeCfgs[id] = cfg
	n := NewNode(cfg)
	d.nodes[id] = n
	// Rebuild the deterministic genesis state before recovery replays over
	// it (a checkpoint snapshot, when present, replaces it wholesale).
	d.seedNode(n)
	if fi := d.Faults(); fi != nil {
		fi.Restart(id)
	}
	n.Start()
	return n, nil
}

// Node returns the replica with the given ID.
func (d *Deployment) Node(id types.NodeID) *Node { return d.nodes[id] }

// Nodes returns all replicas.
func (d *Deployment) Nodes() []*Node {
	out := make([]*Node, 0, len(d.nodes))
	for _, id := range d.Topo.AllNodes() {
		out = append(out, d.nodes[id])
	}
	return out
}

// CrashNode stops delivery to a node, modelling its crash. On the simulated
// fabric the network marks it dead; on TCP the node's own fabric is closed —
// its listener and every connection drop, exactly what killing the process
// would look like to its peers.
func (d *Deployment) CrashNode(id types.NodeID) {
	if fab, ok := d.fabrics[id]; ok {
		fab.Close()
		return
	}
	if fi, ok := d.Net.(transport.FaultInjector); ok {
		fi.Crash(id)
	}
}

// Faults exposes the simulated fabric's fault-injection surface (partitions,
// crash/restart). It returns nil under TransportTCP, where faults are
// physical: close a fabric or kill a process.
func (d *Deployment) Faults() transport.FaultInjector {
	fi, _ := d.Net.(transport.FaultInjector)
	return fi
}

// NodeFabric returns the fabric a replica is attached to: its own TCP
// fabric under TransportTCP, the shared network otherwise.
func (d *Deployment) NodeFabric(id types.NodeID) transport.Fabric {
	if fab, ok := d.fabrics[id]; ok {
		return fab
	}
	return d.Net
}

// connectClients eagerly connects the TCP client fabric to every replica so
// replies forwarded through other nodes can route back. The first call
// waits for the full mesh; later calls use a short grace period (crashed
// replicas stay unreachable by design and must not stall client creation).
func (d *Deployment) connectClients() {
	cf, ok := d.Net.(*tcpnet.Net)
	if !ok {
		return
	}
	timeout := 250 * time.Millisecond
	if !d.clientsConnected.Swap(true) {
		timeout = 5 * time.Second
	}
	cf.ConnectAll(timeout)
}

// SeedAccounts credits `perShard` accounts in every shard with balance on
// every replica of the owning cluster, establishing identical genesis state.
func (d *Deployment) SeedAccounts(perShard int, balance int64) {
	d.seedPerShard, d.seedBalance = perShard, balance
	for _, n := range d.nodes {
		d.seedNode(n)
	}
}

// seedNode replays the genesis credit for one replica's shard.
func (d *Deployment) seedNode(n *Node) {
	for k := 0; k < d.seedPerShard; k++ {
		acct := d.Shards.AccountInShard(n.Cluster(), uint64(k))
		n.Store().Credit(acct, d.seedBalance)
	}
}

// ClusterViews returns one representative ledger view per cluster (the first
// member's), for DAG assembly in tests and examples.
func (d *Deployment) ClusterViews() []*ledger.View {
	var out []*ledger.View
	for _, c := range d.Topo.ClusterIDs() {
		out = append(out, d.nodes[d.Topo.Members(c)[0]].View())
	}
	return out
}

// DAG returns the union ledger assembled from representative views.
func (d *Deployment) DAG() *ledger.DAG { return ledger.NewDAG(d.ClusterViews()...) }

// FraudProofs gathers every distinct fraud proof held across all replicas
// (deduplicated by locus key — gossip makes most proofs appear on every
// honest member of a cluster). Only safe once the deployment has quiesced or
// stopped, like Counters.
func (d *Deployment) FraudProofs() []*types.FraudProof {
	seen := make(map[string]bool)
	var out []*types.FraudProof
	for _, id := range d.Topo.AllNodes() {
		for _, p := range d.nodes[id].FraudProofs() {
			if !seen[p.Key()] {
				seen[p.Key()] = true
				out = append(out, p)
			}
		}
	}
	return out
}

// TotalCommitted sums committed transactions over one representative node
// per cluster (each committed tx counts once per involved cluster).
func (d *Deployment) TotalCommitted() int64 {
	var total int64
	for _, c := range d.Topo.ClusterIDs() {
		total += d.nodes[d.Topo.Members(c)[0]].Committed()
	}
	return total
}
