package core

import (
	"fmt"
	"math/rand"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// ProcessConfig describes one replica running as its own OS process: the
// deployment-wide topology, this process's identity, and the fabric it is
// wired to (normally a tcpnet.Net listening on the address the topology
// names for Self).
type ProcessConfig struct {
	Topo   *consensus.Topology
	Self   types.NodeID
	Fabric transport.Fabric

	// Seed must be identical across every process of the deployment: it
	// deterministically derives the shared protocol-level authenticator keys
	// (a trusted setup, as §2.1 assumes) and each node's jitter source.
	Seed int64
	// Ed25519 switches Byzantine deployments to real signatures.
	Ed25519 bool
	// Slash arms the equivocation-detecting auditor (see internal/slasher).
	// Combine with Ed25519 for third-party-verifiable fraud proofs.
	Slash bool

	// Timers and batching; zero values take the NodeConfig defaults.
	IntraTimeout time.Duration
	LockTimeout  time.Duration
	RetryTimeout time.Duration
	TickInterval time.Duration
	BatchSize    int
	BatchTimeout time.Duration
	MaxInFlight  int
	// VerifyWindow is the node's signature batch-verification window (see
	// NodeConfig.VerifyWindow; 1 = strictly per signature).
	VerifyWindow int
	// InlineCommit restores the pre-pipeline synchronous commit path.
	InlineCommit bool
	// DisableSuperPrimary turns off §3.2 super-primary routing.
	DisableSuperPrimary bool

	// DataDir, when set, is THIS replica's durable storage directory: a
	// write-ahead log plus checkpoints, recovered from on restart-in-place
	// (kill the process, start it again with the same directory, and it
	// rejoins with its chain and acceptor state intact).
	DataDir string
	// Sync is the WAL fsync policy (default storage.SyncGroup).
	Sync storage.SyncPolicy
	// CheckpointInterval is the number of committed blocks between
	// checkpoints (default 256).
	CheckpointInterval int

	// NoMetrics disables the replica's observability registry (on by
	// default; see Config.NoMetrics).
	NoMetrics bool
	// TraceSample is the lifecycle tracer's 1-in-N sampling rate (0 takes
	// obs.DefaultTraceSample).
	TraceSample int
}

// NewProcessNode builds the single replica a standalone process hosts. Key
// material is derived from the shared seed exactly as NewDeployment derives
// it, so N processes started from one topology file agree on every node's
// keys without exchanging secrets at runtime.
func NewProcessNode(cfg ProcessConfig) (*Node, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("core: process config needs a topology")
	}
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fabric == nil {
		return nil, fmt.Errorf("core: process config needs a fabric")
	}
	if cfg.BatchSize > MaxBatchSize {
		return nil, fmt.Errorf("core: BatchSize %d exceeds the %d-transaction cap", cfg.BatchSize, MaxBatchSize)
	}
	cluster, ok := cfg.Topo.ClusterOf(cfg.Self)
	if !ok {
		return nil, fmt.Errorf("core: node %s is not in the topology", cfg.Self)
	}

	var signer crypto.Signer = crypto.NoopSigner{}
	var verifier crypto.Verifier = crypto.NoopSigner{}
	if cfg.Topo.AnyByzantine() {
		var auth crypto.Authenticator = crypto.NewMACKeyring()
		if cfg.Ed25519 {
			auth = crypto.NewKeyring()
		}
		// Generate for every node in canonical order so all processes derive
		// identical keyrings from the shared seed.
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		for _, id := range cfg.Topo.AllNodes() {
			if err := auth.Generate(id, rng); err != nil {
				return nil, err
			}
		}
		s, err := auth.SignerFor(cfg.Self)
		if err != nil {
			return nil, err
		}
		signer, verifier = s, auth
	}

	var reg *obs.Registry
	if !cfg.NoMetrics {
		reg = obs.NewRegistry()
	}
	var st *storage.Store
	if cfg.DataDir != "" {
		var serr error
		st, serr = storage.Open(cfg.DataDir, storage.Options{
			Sync: cfg.Sync, CheckpointInterval: cfg.CheckpointInterval,
			Metrics: obs.NewStoreMetrics(reg),
		})
		if serr != nil {
			return nil, serr
		}
	}
	return NewNode(NodeConfig{
		Model:        cfg.Topo.ModelOf(cluster),
		Topology:     cfg.Topo,
		Cluster:      cluster,
		Self:         cfg.Self,
		Net:          cfg.Fabric,
		Shards:       state.ShardMap{NumShards: len(cfg.Topo.Clusters)},
		Signer:       signer,
		Verifier:     verifier,
		IntraTimeout: cfg.IntraTimeout,
		LockTimeout:  cfg.LockTimeout,
		RetryTimeout: cfg.RetryTimeout,
		TickInterval: cfg.TickInterval,
		BatchSize:    cfg.BatchSize,
		BatchTimeout: cfg.BatchTimeout,
		MaxInFlight:  cfg.MaxInFlight,
		VerifyWindow: cfg.VerifyWindow,
		InlineCommit: cfg.InlineCommit,
		SuperPrimary: !cfg.DisableSuperPrimary,
		Seed:         cfg.Seed + int64(cfg.Self) + 2,
		Storage:      st,
		Slash:        cfg.Slash,
		Metrics:      reg,
		TraceSample:  cfg.TraceSample,
	}), nil
}

// FetchView retrieves one cluster's ledger view from a remote replica over
// the chain-sync protocol (MsgSyncRequest/MsgSyncResponse), for audits by a
// driver process that holds no replica state of its own. It pages through
// the peer's chain until a request goes unanswered for `idle` (the peer
// stays silent once the requester has everything — the same convention
// replicas use among themselves). Call it on a quiesced deployment.
func FetchView(fab transport.Fabric, self types.NodeID, inbox <-chan *types.Envelope,
	peer types.NodeID, cluster types.ClusterID, idle time.Duration) (*ledger.View, error) {
	view := ledger.NewView(cluster)
	for {
		req := &types.SyncRequest{From: uint64(view.Len())}
		fab.Send(peer, &types.Envelope{
			Type: types.MsgSyncRequest, From: self, Payload: req.Encode(nil),
		})
		progressed, err := awaitSyncPage(inbox, view, req.From, idle)
		if err != nil {
			return nil, err
		}
		if !progressed {
			return view, nil
		}
	}
}

// awaitSyncPage appends one page of sync blocks to view, reporting whether
// the chain advanced. Unrelated traffic in the inbox is skipped.
func awaitSyncPage(inbox <-chan *types.Envelope, view *ledger.View, from uint64, idle time.Duration) (bool, error) {
	deadline := time.NewTimer(idle)
	defer deadline.Stop()
	for {
		select {
		case env := <-inbox:
			if env.Type != types.MsgSyncResponse {
				continue
			}
			resp, err := types.DecodeSyncResponse(env.Payload)
			if err != nil {
				continue
			}
			if resp.From != from || len(resp.Blocks) == 0 {
				continue // stale page from an earlier request
			}
			for _, b := range resp.Blocks {
				if err := view.Append(b); err != nil {
					return false, fmt.Errorf("core: sync audit of %s: %w", view.Cluster(), err)
				}
			}
			return true, nil
		case <-deadline.C:
			return false, nil
		}
	}
}
