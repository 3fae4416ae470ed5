package main

import (
	"time"

	"sharper/internal/core"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// Every workload runs the paper's §4 shape: four clusters with f=1, 1024
// uniformly chosen accounts per shard, two shards per cross-shard
// transaction. Balances are large enough that no transfer ever overdraws.
const (
	clusters         = 4
	faultBound       = 1
	accountsPerShard = 1024
	seedBalance      = int64(1) << 40
)

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	name      string
	model     types.FailureModel
	transport core.TransportKind
	wan       bool // transport.Multiregion shaping on the sim fabric
	crossPct  int
	batch     int
	durable   bool // WAL + checkpoints in a temp dir under sync
	sync      storage.SyncPolicy

	// rate is the nominal offered load (arrivals per second).
	rate float64
	// ladder is the fixed ascending series of offered rates capacity_tps
	// climbs; a rung passes when p99 stays within p99Limit, at most 1% of
	// its arrivals fail, and its backlog does not grow.
	ladder   []float64
	p99Limit time.Duration
	// clients is the size of the gateway-client pool (the in-flight cap).
	clients int
	// warmup runs at the nominal rate before anything is measured.
	warmup time.Duration
}

var workloads = []*workload{
	{
		// The CPU-bound intra-shard hot path over real sockets with group
		// commit: transport/types, paxos, exec/state, storage and mempool do
		// the work; the verify pool and the conflict table are bypassed.
		name: "intra-tcp", model: types.CrashOnly, transport: core.TransportTCP,
		crossPct: 0, batch: 16, durable: true, sync: storage.SyncGroup,
		rate: 2000, ladder: []float64{3000, 4500, 6000, 7500, 9000},
		p99Limit: 100 * time.Millisecond, clients: 1024, warmup: 2 * time.Second,
	},
	{
		// The Byzantine intra-shard path: the MAC verify pool and PBFT on the
		// sim LAN. It carries no cross-shard traffic because the Byzantine
		// cross-shard path loses liveness under timing stress (byz-cross-sim
		// and byz-cross-tcp below reproduce it); the cross-shard coordinator
		// and the conflict table are measured on wan-cross.
		name: "byz-intra-sim", model: types.Byzantine, transport: core.TransportSim,
		crossPct: 0, batch: 16,
		rate: 2000, ladder: []float64{2500, 5000, 7500, 10000, 12500},
		p99Limit: 250 * time.Millisecond, clients: 512, warmup: 2 * time.Second,
	},
	{
		// Paper-faithful batch 1 across regions: bound by WAN round trips and
		// by intra work queued behind cross-shard slot reservations, not by
		// CPU, so a hot-path change should leave it alone.
		name: "wan-cross", model: types.CrashOnly, transport: core.TransportSim, wan: true,
		crossPct: 20, batch: 1,
		rate: 40, ladder: []float64{50, 60, 70, 80},
		p99Limit: time.Second, clients: 256, warmup: 2 * time.Second,
	},
}

// reproducers are mixes kept runnable by name but not part of the measured
// benchmark.
var reproducers = []*workload{
	{
		// Byzantine cross-shard mix (the paper's Fig. 7b 20%) on the sim LAN:
		// the MAC verify pool, PBFT and the Byzantine coordinator with its
		// conflict table. It was measured until runs of the same code stopped
		// agreeing: some 20 s runs stall into client timeouts (on a two-core
		// host, 1 to 3 runs in 10, e.g. 849 of 6000 committed with 887
		// timeouts), and the same seed reruns clean.
		name: "byz-cross-sim", model: types.Byzantine, transport: core.TransportSim,
		crossPct: 20, batch: 16,
		rate: 300, ladder: []float64{500, 800, 1100, 1400, 1700},
		p99Limit: 250 * time.Millisecond, clients: 512, warmup: 2 * time.Second,
	},
	{
		// The byz-cross-sim mix over TCP loopback. At 200 tx/s for 20 s on a
		// two-core host, 54-86% of arrivals fail (16 s client timeouts, and harness drops once every
		// client waits on one); the mix has also been seen to fail the
		// audit's DAG.Verify with cross-shard content diverging between
		// clusters.
		name: "byz-cross-tcp", model: types.Byzantine, transport: core.TransportTCP,
		crossPct: 20, batch: 16,
		rate: 200, ladder: []float64{400},
		p99Limit: 250 * time.Millisecond, clients: 256, warmup: 2 * time.Second,
	},
	{
		// byz-cross-sim at twice its measured rate. In one series of ten
		// 20 s runs, two collapsed (goodput 158 and 43 tx/s of 600 offered,
		// with 535 and 708 client timeouts); one of those seeds later reran
		// clean, so the trigger is timing rather than the schedule.
		name: "byz-cross-sim-600", model: types.Byzantine, transport: core.TransportSim,
		crossPct: 20, batch: 16,
		rate: 600, ladder: []float64{1000},
		p99Limit: 250 * time.Millisecond, clients: 512, warmup: 2 * time.Second,
	},
}

func lookupWorkload(name string) *workload {
	for _, w := range append(append([]*workload(nil), workloads...), reproducers...) {
		if w.name == name {
			return w
		}
	}
	return nil
}

// config is the deployment the workload drives. dataDir is used only by
// durable workloads; wrap, when set, decorates every replica's fabric.
func (w *workload) config(seed int64, dataDir string, wrap func(types.NodeID, transport.Fabric) transport.Fabric) core.Config {
	cfg := core.Config{
		Model: w.model, Clusters: clusters, F: faultBound,
		Transport: w.transport, BatchSize: w.batch,
		Seed: seed, NoPersist: !w.durable, WrapFabric: wrap,
	}
	if w.wan {
		cfg.Shaping = transport.Multiregion()
	}
	if w.durable {
		cfg.DataDir, cfg.Sync = dataDir, w.sync
	}
	return cfg
}
