// Command sharperd runs SharPer. It has three modes:
//
// Single process (the quickest way to watch the system work) — build a full
// deployment in-process, on the simulated fabric or over real loopback TCP
// sockets, drive it with a configurable workload, and print live throughput
// plus a final ledger audit:
//
//	sharperd -model crash -clusters 4 -f 1 -cross 10 -clients 16 -duration 5s
//	sharperd -transport tcp -clusters 4 -f 1 -duration 5s
//
// Add -gateway to either single-process variant (or to -drive) to issue the
// workload through the client-ingress plane — shard-routed submits into
// per-shard mempool gateways — instead of the direct request path; admission
// sheds are counted and printed:
//
//	sharperd -gateway -transport tcp -clusters 4 -f 1 -duration 5s
//
// Replica process — run ONE replica of a multi-process deployment described
// by a topology file (every process is started from the same file; node
// identity is derived from -listen or given with -node):
//
//	sharperd -topology topo.txt -listen 127.0.0.1:7100
//
// Client driver — attach to a running multi-process deployment, issue a
// mixed intra-/cross-shard workload, then fetch every cluster's chain over
// the sync protocol and audit the assembled DAG:
//
//	sharperd -topology topo.txt -drive -clients 16 -duration 5s
//
// Scaffold a topology file with -topology-init:
//
//	sharperd -topology topo.txt -topology-init -clusters 4 -f 1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"sharper"
	"sharper/internal/core"
	"sharper/internal/crypto"
	"sharper/internal/ledger"
	"sharper/internal/obs"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/transport"
	"sharper/internal/transport/tcpnet"
	"sharper/internal/types"
	"sharper/internal/workload"
)

func main() {
	model := flag.String("model", "crash", "failure model: crash or byzantine")
	clusters := flag.Int("clusters", 4, "number of clusters (= shards)")
	f := flag.Int("f", 1, "per-cluster fault bound")
	cross := flag.Int("cross", 10, "percent cross-shard transactions")
	clients := flag.Int("clients", 16, "closed-loop clients")
	duration := flag.Duration("duration", 5*time.Second, "run length")
	seed := flag.Int64("seed", 1, "random seed")
	batch := flag.Int("batch", 1, "max transactions per block (1 = the paper's single-tx blocks)")
	showDAG := flag.Bool("dag", false, "print the ledger DAG at the end")
	transportKind := flag.String("transport", "sim", "single-process fabric: sim or tcp")
	accounts := flag.Int("accounts", 1024, "accounts seeded per shard at genesis")
	balance := flag.Int64("balance", 1<<40, "initial balance of each seeded account")
	dataDir := flag.String("data", "", "durable storage base directory (each replica uses DIR/node-<id>); a killed replica restarted with the same -data recovers in place")
	syncPolicy := flag.String("sync", "group", "WAL fsync policy: none, group, or always")
	lockTimeout := flag.Duration("lock-timeout", 0, "cross-shard lock expiry, the §3.2 'pre-determined time' (0 = default 3s); must dominate worst-case commit delivery in your environment")
	inlineCommit := flag.Bool("inline-commit", false, "restore the pre-pipeline synchronous commit path (apply, persist, and reply on the event loop) for A/B comparison")
	gateway := flag.Bool("gateway", false, "issue the workload through the client-ingress plane (shard-routed submits into per-shard mempool gateways) instead of the direct request path; admission sheds are counted and printed")
	slash := flag.Bool("slash", false, "arm the equivocation-detecting auditor on every replica; the driver and local modes print an offender report from the collected fraud proofs")
	ed25519 := flag.Bool("ed25519", false, "byzantine model: use ed25519 signatures instead of HMAC, making -slash fraud proofs verifiable by third parties holding only public keys")
	shapeSpec := flag.String("shape", "", "link shaping: 'multiregion' (the paper's cross-datacenter WAN) or a spec like 'delay 30ms bw 200Mbps loss 0.001' applied to every link; in topology modes it overrides the file's link directives, with -topology-init it is written into the file")
	verifyWindow := flag.Int("verify-window", 0, "signature batch-verification window per node (1 = strictly per signature; 0 = SHARPER_VERIFY_WINDOW or the built-in default)")

	topoPath := flag.String("topology", "", "topology file: run as one process of a multi-process deployment")
	topoInit := flag.Bool("topology-init", false, "write a fresh topology file (with -clusters, -f, -model) and exit")
	listen := flag.String("listen", "", "replica mode: run the node whose topology address is this")
	nodeID := flag.Int("node", -1, "replica mode: run this node id (alternative to -listen)")
	drive := flag.Bool("drive", false, "driver mode: issue workload against a running multi-process deployment")
	host := flag.String("host", "127.0.0.1", "host for -topology-init addresses")
	basePort := flag.Int("base-port", 7100, "first port for -topology-init addresses")
	secret := flag.String("secret", "sharper-demo", "wire secret for -topology-init")
	driverIdx := flag.Int("driver-index", 0, "unique index of this driver process (keeps client IDs disjoint)")
	connectTimeout := flag.Duration("connect-timeout", 15*time.Second, "driver mode: how long to wait for replicas to come up")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) so perf work starts from profiles")
	metricsAddr := flag.String("metrics", "", "replica mode: serve Prometheus-text /metrics on this address; with -pprof the endpoint is also registered on the pprof mux")
	traceSample := flag.Int("trace-sample", 0, "replica mode: lifecycle-tracer 1-in-N sampling (0 = built-in default, 1 = trace everything)")
	traceDir := flag.String("trace-dir", "", "driver mode: directory to dump every replica's SHARPER_TRACE ring into when the wire audit finds divergence (default: the topology file's directory)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "sharperd: pprof server: %v"+"\n", err)
			}
		}()
	}

	fm, err := parseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sync, err := storage.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	shaping, err := parseShaping(*shapeSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *topoInit {
		if *topoPath == "" {
			fmt.Fprintln(os.Stderr, "-topology-init needs -topology FILE")
			os.Exit(2)
		}
		if err := WriteTopologyFile(*topoPath, *host, *basePort, *clusters, *f, fm, *secret, *shapeSpec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d %s clusters, f=%d\n", *topoPath, *clusters, fm, *f)
		return
	}

	if *topoPath != "" {
		tf, err := ParseTopologyFile(*topoPath)
		if err != nil {
			log.Fatal(err)
		}
		if shaping != nil {
			tf.Shaping = shaping // -shape overrides the file's link directives
		}
		switch {
		case *drive:
			td := *traceDir
			if td == "" {
				td = filepath.Dir(*topoPath)
			}
			err = runDriver(tf, driverOptions{
				Clients:        *clients,
				CrossPct:       *cross,
				Duration:       *duration,
				Seed:           *seed,
				Accounts:       *accounts,
				DriverIndex:    *driverIdx,
				ConnectTimeout: *connectTimeout,
				ShowDAG:        *showDAG,
				TraceDir:       td,
				Slash:          *slash,
				Ed25519:        *ed25519,
				Gateway:        *gateway,
			}, os.Stdout)
			if err != nil {
				log.Fatal(err)
			}
		case *listen != "" || *nodeID >= 0:
			self := types.NodeID(*nodeID)
			if *listen != "" {
				id, ok := tf.NodeByListenAddr(*listen)
				if !ok {
					log.Fatalf("no node in %s listens on %s", *topoPath, *listen)
				}
				self = id
			}
			stop := make(chan struct{})
			go func() {
				sig := make(chan os.Signal, 1)
				signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
				<-sig
				close(stop)
			}()
			if err := runReplica(tf, self, replicaOptions{
				Seed:           *seed,
				Batch:          *batch,
				Accounts:       *accounts,
				Balance:        *balance,
				DataDir:        *dataDir,
				Sync:           sync,
				LockTimeout:    *lockTimeout,
				InlineCommit:   *inlineCommit,
				Slash:          *slash,
				Ed25519:        *ed25519,
				VerifyWindow:   *verifyWindow,
				MetricsAddr:    *metricsAddr,
				MetricsOnPprof: *pprofAddr != "",
				TraceSample:    *traceSample,
			}, stop, os.Stdout); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatal("with -topology, pass -listen ADDR / -node N (replica) or -drive (driver)")
		}
		return
	}

	if shaping != nil && *shapeSpec != "multiregion" {
		// The single-process facade exposes the preset only; arbitrary link
		// matrices belong in a topology file.
		fmt.Fprintln(os.Stderr, "single-process mode supports -shape multiregion only (use -topology for custom link shapes)")
		os.Exit(2)
	}
	runLocal(fm, localOptions{
		Clusters: *clusters, F: *f, CrossPct: *cross, Clients: *clients,
		Duration: *duration, Seed: *seed, Batch: *batch, ShowDAG: *showDAG,
		Accounts: *accounts, Balance: *balance, TCP: *transportKind == "tcp",
		DataDir: *dataDir, Sync: sync,
		InlineCommit: *inlineCommit,
		Slash:        *slash, Ed25519: *ed25519,
		Multiregion: *shapeSpec == "multiregion", VerifyWindow: *verifyWindow,
		Gateway: *gateway,
	})
}

// parseShaping turns the -shape flag into a shaping matrix: empty means no
// shaping, "multiregion" is the paper's cross-datacenter preset, anything
// else is one delay/bw/loss spec applied uniformly to every link class.
func parseShaping(spec string) (*transport.Shaping, error) {
	if spec == "" {
		return nil, nil
	}
	if spec == "multiregion" {
		return transport.Multiregion(), nil
	}
	s, err := transport.ParseLinkShape(strings.Fields(spec))
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	return &transport.Shaping{Default: s, Intra: s, Client: s}, nil
}

func parseModel(s string) (sharper.FailureModel, error) {
	switch s {
	case "crash":
		return sharper.CrashOnly, nil
	case "byzantine", "byz":
		return sharper.Byzantine, nil
	default:
		return sharper.CrashOnly, fmt.Errorf("unknown model %q", s)
	}
}

// ---------------------------------------------------------------- replica --

type replicaOptions struct {
	Seed     int64
	Batch    int
	Accounts int
	Balance  int64
	// InlineCommit restores the pre-pipeline synchronous commit path.
	InlineCommit bool
	// DataDir is the deployment's storage base directory; this replica
	// persists under DataDir/node-<id> and recovers from it on restart.
	DataDir string
	Sync    storage.SyncPolicy
	// LockTimeout is the cross-shard lock expiry (0 = default).
	LockTimeout time.Duration
	// Slash arms the equivocation-detecting auditor; Ed25519 switches the
	// Byzantine authenticator to real signatures so its fraud proofs are
	// third-party verifiable.
	Slash   bool
	Ed25519 bool
	// VerifyWindow is the signature batch-verification window (0 = env or
	// default, 1 = strictly per signature).
	VerifyWindow int
	// MetricsAddr serves Prometheus-text /metrics on its own listener;
	// MetricsOnPprof additionally registers the endpoint on the process-wide
	// pprof mux. TraceSample tunes the lifecycle tracer (0 = default).
	MetricsAddr    string
	MetricsOnPprof bool
	TraceSample    int
}

// runReplica hosts one node of a multi-process deployment: a TCP fabric
// listening on the node's topology address, the replica runtime on top, and
// genesis state for its own shard. It returns when stop closes.
func runReplica(tf *TopologyFile, self types.NodeID, opts replicaOptions, stop <-chan struct{}, out io.Writer) error {
	addr, ok := tf.Addrs[self]
	if !ok {
		return fmt.Errorf("node %s is not in the topology", self)
	}
	fcfg := tcpnet.Config{
		Self:       self,
		ListenAddr: addr,
		Peers:      tf.Addrs,
		Secret:     crypto.WireKey(tf.Secret),
	}
	// Every process shapes its own outbound links, so the deployment as a
	// whole emulates the WAN the topology file describes.
	if tune := core.ShapeTune(tf.Shaping, opts.Seed, tf.Topo.ClusterOf); tune != nil {
		tune(&fcfg)
	}
	fab, err := tcpnet.New(fcfg)
	if err != nil {
		return err
	}
	defer fab.Close()

	pcfg := core.ProcessConfig{
		Topo:         tf.Topo,
		Self:         self,
		Fabric:       fab,
		Seed:         opts.Seed,
		BatchSize:    opts.Batch,
		Sync:         opts.Sync,
		LockTimeout:  opts.LockTimeout,
		InlineCommit: opts.InlineCommit,
		Slash:        opts.Slash,
		Ed25519:      opts.Ed25519,
		VerifyWindow: opts.VerifyWindow,
		TraceSample:  opts.TraceSample,
	}
	if opts.DataDir != "" {
		pcfg.DataDir = core.NodeDataDir(opts.DataDir, self)
	}
	node, err := core.NewProcessNode(pcfg)
	if err != nil {
		return err
	}
	shards := state.ShardMap{NumShards: len(tf.Topo.Clusters)}
	for k := 0; k < opts.Accounts; k++ {
		node.Store().Credit(shards.AccountInShard(node.Cluster(), uint64(k)), opts.Balance)
	}
	node.Start()
	defer node.Stop()
	serveReplicaMetrics(node, fab, opts, out)
	if n := node.RecoveredBlocks(); n > 0 {
		fmt.Fprintf(out, "sharperd: replica %s recovered %d blocks from %s\n", self, n, pcfg.DataDir)
	}
	fmt.Fprintf(out, "sharperd: replica %s (cluster %s) listening on %s\n", self, node.Cluster(), fab.Addr())
	<-stop
	// Stop before reading the scheduler counters: Counters is a quiesced
	// read (the deferred Stop above is idempotent).
	node.Stop()
	s := node.Counters()
	fmt.Fprintf(out, "sharperd: replica %s stopping (committed %d, chain %d blocks, %d anomalies; sched leads=%d parks=%d withdraws=%d expiries=%d avoided=%d)\n",
		self, node.Committed(), node.View().Len(), node.Anomalies(),
		s.LeadsInFlight, s.Parks, s.Withdraws, s.LockExpiries, s.DefersAvoided)
	if os.Getenv("SHARPERD_DEBUG") != "" {
		for _, line := range node.DebugTrace() {
			fmt.Fprintf(out, "sharperd: trace %s: %s\n", self, line)
		}
	}
	return nil
}

// ----------------------------------------------------------------- driver --

type driverOptions struct {
	Clients        int
	CrossPct       int
	Duration       time.Duration
	Seed           int64
	Accounts       int
	DriverIndex    int
	ConnectTimeout time.Duration
	ShowDAG        bool
	// TraceDir is where a failed wire audit dumps every replica's
	// SHARPER_TRACE ring (one trace-node-<id>.log per replica).
	TraceDir string
	// Slash makes the driver fetch every replica's fraud-proof evidence
	// after the audit and print the offender report; Ed25519 tells it which
	// authenticator the replicas derive from the seed, so it can rebuild the
	// matching verifier offline.
	Slash   bool
	Ed25519 bool
	// Gateway issues the workload through the client-ingress plane (shard
	// mempool gateways) instead of the direct request path.
	Gateway bool
}

// driverClient is the issuing surface shared by the direct client and the
// gateway client, so the driver loop is path-agnostic.
type driverClient interface {
	MakeTx(ops []types.Op) *types.Transaction
	Submit(tx *types.Transaction) (bool, time.Duration, error)
}

// runDriver attaches to a running multi-process deployment over a dial-only
// fabric, issues the workload, then audits the deployment's DAG by fetching
// every cluster's chain through the sync protocol.
func runDriver(tf *TopologyFile, opts driverOptions, out io.Writer) error {
	fcfg := tcpnet.Config{
		Peers:  tf.Addrs,
		Secret: crypto.WireKey(tf.Secret),
	}
	// The driver's dial-only fabric gets the topology's client link shape, so
	// request/reply latency matches the emulated WAN too.
	if tune := core.ShapeTune(tf.Shaping, opts.Seed, tf.Topo.ClusterOf); tune != nil {
		tune(&fcfg)
	}
	fab, err := tcpnet.New(fcfg)
	if err != nil {
		return err
	}
	defer fab.Close()

	shards := state.ShardMap{NumShards: len(tf.Topo.Clusters)}
	// Client IDs are partitioned by driver index so several driver processes
	// can share one deployment without colliding.
	clientBase := types.ClientIDBase + types.NodeID(opts.DriverIndex)*100_000
	cls := make([]driverClient, opts.Clients)
	for i := range cls {
		id := clientBase + types.NodeID(i) + 1
		if opts.Gateway {
			cls[i] = core.NewGatewayClientAt(fab, tf.Topo, shards, id)
		} else {
			cls[i] = core.NewClientAt(fab, tf.Topo, shards, id)
		}
	}
	fmt.Fprintf(out, "sharperd: driver connecting to %d replicas…\n", len(tf.Addrs))
	if err := fab.ConnectAll(opts.ConnectTimeout); err != nil {
		return fmt.Errorf("deployment not up: %w", err)
	}

	gen := workload.New(workload.Config{
		Shards:           shards,
		AccountsPerShard: opts.Accounts,
		CrossShardPct:    opts.CrossPct,
		ShardsPerCross:   2,
		Seed:             opts.Seed,
	})

	var committed, crossDone, failed, shed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, c := range cls {
		wg.Add(1)
		go func(k int, c driverClient) {
			defer wg.Done()
			g := gen.Split(k)
			for !stop.Load() {
				tx := c.MakeTx(g.Next())
				ok, _, err := c.Submit(tx)
				if errors.Is(err, core.ErrOverloaded) || errors.Is(err, core.ErrExpired) {
					shed.Add(1)
					continue
				}
				if err != nil {
					failed.Add(1)
					continue
				}
				_ = ok
				committed.Add(1)
				if tx.IsCrossShard() {
					crossDone.Add(1)
				}
			}
		}(i, c)
	}

	start := time.Now()
	ticker := time.NewTicker(time.Second)
	deadline := time.After(opts.Duration)
loop:
	for {
		select {
		case <-ticker.C:
			n := committed.Load()
			fmt.Fprintf(out, "  t=%4.1fs committed=%6d (%.0f tx/s, %d cross-shard)\n",
				time.Since(start).Seconds(), n, float64(n)/time.Since(start).Seconds(), crossDone.Load())
		case <-deadline:
			break loop
		}
	}
	ticker.Stop()
	stop.Store(true)
	wg.Wait()

	n := committed.Load()
	fmt.Fprintf(out, "total: %d transactions (%.0f tx/s), %d cross-shard, %d failed, %d shed\n",
		n, float64(n)/time.Since(start).Seconds(), crossDone.Load(), failed.Load(), shed.Load())

	// Replicas keep converging (cross-shard decisions propagate to
	// non-initiator replicas asynchronously, chain sync fills gaps), so
	// retry the audit until the fetched views agree or the deadline passes.
	var dag *ledger.DAG
	var auditErr error
	auditDeadline := time.Now().Add(15 * time.Second)
	for attempt := 0; ; attempt++ {
		dag, auditErr = fetchDAG(fab, tf, clientBase+99_000+types.NodeID(attempt))
		if auditErr == nil {
			if auditErr = dag.Verify(); auditErr == nil {
				auditErr = dag.VerifyPairwiseOrder()
			}
		}
		if auditErr == nil {
			break
		}
		if time.Now().After(auditDeadline) {
			// A divergent deployment's protocol history lives in the
			// replicas' SHARPER_TRACE rings; pull them all while the
			// processes are still up — they are the only evidence.
			dumpTraces(fab, tf, opts.TraceDir, clientBase+98_000, out)
			return fmt.Errorf("ledger audit FAILED: %w", auditErr)
		}
		time.Sleep(300 * time.Millisecond)
	}
	fmt.Fprintln(out, "ledger audit: all views consistent, cross-shard order agrees")
	if err := auditState(fab, tf, clientBase+94_000, out); err != nil {
		return fmt.Errorf("state audit FAILED: %w", err)
	}
	printSchedStats(fab, tf, clientBase+97_000, out)
	printMetrics(fab, tf, clientBase+95_000, out)
	if opts.Slash {
		printEvidence(fab, tf, opts.Seed, opts.Ed25519, clientBase+96_000, out)
	}
	if opts.ShowDAG {
		fmt.Fprint(out, dag.RenderASCII())
	}
	return nil
}

// auditState fetches every replica's deterministic store fingerprint
// (MsgStateRequest) and asserts that, cluster by cluster, every replica
// reports the same applied height and hash — the wire proof that
// conflict-partitioned parallel apply produced exactly the state serial
// execution would have. Replicas may briefly lag (executor drain, chain
// sync), so disagreement retries until the deadline.
func auditState(fab *tcpnet.Net, tf *TopologyFile, auditID types.NodeID, out io.Writer) error {
	inbox := fab.Register(auditID)
	deadline := time.Now().Add(10 * time.Second)
	var lastErr error
	for {
		got := make(map[types.NodeID]*types.StateDigest)
		for id := range tf.Addrs {
			fab.Send(id, &types.Envelope{Type: types.MsgStateRequest, From: auditID})
		}
		timeout := time.After(3 * time.Second)
	collect:
		for len(got) < len(tf.Addrs) {
			select {
			case env := <-inbox:
				if env.Type != types.MsgStateResponse {
					continue
				}
				d, err := types.DecodeStateDigest(env.Payload)
				if err != nil {
					continue
				}
				if _, known := tf.Addrs[d.Node]; !known {
					continue
				}
				got[d.Node] = d
			case <-timeout:
				break collect
			}
		}
		lastErr = stateConsensus(tf, got)
		if lastErr == nil {
			fmt.Fprintln(out, "state audit: store fingerprints agree on every cluster")
			return nil
		}
		if time.Now().After(deadline) {
			return lastErr
		}
		time.Sleep(300 * time.Millisecond)
	}
}

// stateConsensus checks per-cluster agreement of fetched state digests.
func stateConsensus(tf *TopologyFile, got map[types.NodeID]*types.StateDigest) error {
	byCluster := make(map[types.ClusterID][]*types.StateDigest)
	for id := range tf.Addrs {
		d, ok := got[id]
		if !ok {
			return fmt.Errorf("replica %v did not answer the state audit", id)
		}
		c, ok := tf.Topo.ClusterOf(id)
		if !ok {
			continue
		}
		byCluster[c] = append(byCluster[c], d)
	}
	for c, ds := range byCluster {
		first := ds[0]
		for _, d := range ds[1:] {
			if d.Height != first.Height {
				return fmt.Errorf("cluster %v: applied heights differ (%v at %d, %v at %d)",
					c, first.Node, first.Height, d.Node, d.Height)
			}
			if d.Hash != first.Hash {
				return fmt.Errorf("cluster %v: fingerprint mismatch at height %d between %v and %v",
					c, first.Height, first.Node, d.Node)
			}
		}
	}
	return nil
}

// printSchedStats fetches every replica's cross-shard scheduler counters
// over the wire (MsgStatsRequest) and prints the deployment-wide aggregate —
// the audit's view into leads pipelining, conflict-table occupancy, and
// deferral precision.
func printSchedStats(fab *tcpnet.Net, tf *TopologyFile, statsID types.NodeID, out io.Writer) {
	inbox := fab.Register(statsID)
	for id := range tf.Addrs {
		fab.Send(id, &types.Envelope{Type: types.MsgStatsRequest, From: statsID})
	}
	var agg types.SchedStats
	got := make(map[types.NodeID]bool)
	deadline := time.After(3 * time.Second)
	for len(got) < len(tf.Addrs) {
		select {
		case env := <-inbox:
			if env.Type != types.MsgStatsResponse {
				continue
			}
			s, err := types.DecodeSchedStats(env.Payload)
			if err != nil || got[s.Node] {
				continue
			}
			if _, known := tf.Addrs[s.Node]; !known {
				continue
			}
			got[s.Node] = true
			agg.Add(s)
		case <-deadline:
			fmt.Fprintf(out, "sharperd: scheduler stats: %d/%d replicas answered\n", len(got), len(tf.Addrs))
			if len(got) == 0 {
				return
			}
			goto done
		}
	}
done:
	fmt.Fprintf(out, "scheduler: leads=%d (hw %d) table=%d grants=%d parks=%d withdraws=%d expiries=%d defers=%d avoided=%d selfwaits=%d\n",
		agg.LeadsInFlight, agg.LeadHighWater, agg.TableSize, agg.Grants, agg.Parks,
		agg.Withdraws, agg.LockExpiries, agg.Defers, agg.DefersAvoided, agg.SelfVoteWaits)
}

// metricsOnPprofOnce guards the process-wide pprof-mux registration: tests
// host several replicas in one process, and DefaultServeMux panics on a
// duplicate pattern.
var metricsOnPprofOnce sync.Once

// serveReplicaMetrics exposes the replica's registry (plus its TCP fabric's
// per-peer link counters, which live outside the registry) in Prometheus
// text form: on a dedicated listener when -metrics is set, and on the pprof
// mux when -pprof is up.
func serveReplicaMetrics(node *core.Node, fab *tcpnet.Net, opts replicaOptions, out io.Writer) {
	if opts.MetricsAddr == "" && !opts.MetricsOnPprof {
		return
	}
	handler := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if reg := node.Metrics(); reg != nil {
			reg.WritePrometheus(w)
		}
		writeLinkMetrics(w, fab)
	}
	if opts.MetricsOnPprof {
		metricsOnPprofOnce.Do(func() { http.HandleFunc("/metrics", handler) })
	}
	if opts.MetricsAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", handler)
		go func() {
			if err := http.ListenAndServe(opts.MetricsAddr, mux); err != nil {
				fmt.Fprintf(out, "sharperd: metrics server: %v\n", err)
			}
		}()
	}
}

// writeLinkMetrics renders the TCP fabric's per-peer link counters as
// labelled Prometheus series (queue depth, bytes, sends/drops, shaped delay,
// reconnects) — the wire-level view the per-node registry cannot hold.
func writeLinkMetrics(w io.Writer, fab *tcpnet.Net) {
	stats := fab.LinkStats()
	if len(stats) == 0 {
		return
	}
	families := []struct {
		name string
		get  func(tcpnet.PeerLinkStats) int64
	}{
		{"sharper_link_sent", func(s tcpnet.PeerLinkStats) int64 { return s.Sent }},
		{"sharper_link_dropped", func(s tcpnet.PeerLinkStats) int64 { return s.Dropped }},
		{"sharper_link_bytes", func(s tcpnet.PeerLinkStats) int64 { return s.Bytes }},
		{"sharper_link_reconnects", func(s tcpnet.PeerLinkStats) int64 { return s.Reconnects }},
		{"sharper_link_shaped_us", func(s tcpnet.PeerLinkStats) int64 { return s.ShapedMicros }},
		{"sharper_link_queue_depth", func(s tcpnet.PeerLinkStats) int64 { return int64(s.QueueDepth) }},
	}
	for _, f := range families {
		fmt.Fprintf(w, "# TYPE %s gauge\n", f.name)
		for _, s := range stats {
			fmt.Fprintf(w, "%s{peer=\"%s\"} %d\n", f.name, s.Peer, f.get(s))
		}
	}
}

// printMetrics fetches every replica's registry snapshot over the wire
// (MsgMetricsRequest), merges the fleet, and prints the commit-latency
// breakdown plus headline counters — the audit-time roll-up companion to
// printSchedStats.
func printMetrics(fab *tcpnet.Net, tf *TopologyFile, metricsID types.NodeID, out io.Writer) {
	inbox := fab.Register(metricsID)
	for id := range tf.Addrs {
		fab.Send(id, &types.Envelope{Type: types.MsgMetricsRequest, From: metricsID})
	}
	var snaps [][]obs.Metric
	got := make(map[types.NodeID]bool)
	deadline := time.After(3 * time.Second)
	for len(got) < len(tf.Addrs) {
		select {
		case env := <-inbox:
			if env.Type != types.MsgMetricsResponse {
				continue
			}
			d, err := types.DecodeMetricsDump(env.Payload)
			if err != nil || got[d.Node] {
				continue
			}
			if _, known := tf.Addrs[d.Node]; !known {
				continue
			}
			got[d.Node] = true
			snaps = append(snaps, obs.MetricsFromWire(d.Metrics))
		case <-deadline:
			fmt.Fprintf(out, "sharperd: metrics: %d/%d replicas answered\n", len(got), len(tf.Addrs))
			if len(got) == 0 {
				return
			}
			goto merge
		}
	}
merge:
	merged := obs.Merge(snaps...)
	byName := make(map[string]*obs.Metric, len(merged))
	for i := range merged {
		byName[merged[i].Name] = &merged[i]
	}
	val := func(name string) uint64 {
		if m := byName[name]; m != nil {
			return m.Value
		}
		return 0
	}
	fmt.Fprintf(out, "metrics: committed=%d verify{windows=%d envelopes=%d bisects=%d} storage{wal=%dB ckpts=%d}\n",
		val("committed_txs"), val("verify_windows"), val("verify_envelopes"),
		val("verify_bisects"), val("storage_wal_bytes"), val("storage_checkpoints"))
	fmt.Fprintf(out, "metrics: mempool admitted=%d deduped=%d shed=%d expired=%d pending{count=%d bytes=%d}\n",
		val("mempool_admitted"), val("mempool_deduped"), val("mempool_shed"),
		val("mempool_expired"), val("mempool_pending_count"), val("mempool_pending_bytes"))
	for _, series := range []string{"intra", "cross"} {
		if m := byName["stage_"+series+"_total_us"]; m != nil && m.Count > 0 {
			fmt.Fprintf(out, "metrics: %s commit latency (µs, %d sampled): p50=%d p95=%d p99=%d\n",
				series, m.Count, m.Quantile(0.50), m.Quantile(0.95), m.Quantile(0.99))
		}
	}
}

// printEvidence fetches every replica's accumulated fraud proofs over the
// wire (MsgEvidenceRequest), deduplicates them, re-verifies each one against
// an authenticator rebuilt offline from the shared seed (exactly as every
// replica derives it — the driver never sees a private channel the proofs
// depend on), and prints the offender report. A proof that fails offline
// verification is counted separately: the replicas should never have
// admitted it.
func printEvidence(fab *tcpnet.Net, tf *TopologyFile, seed int64, ed25519 bool, evID types.NodeID, out io.Writer) {
	var verifier types.SigVerifier = crypto.NoopSigner{}
	if tf.Topo.AnyByzantine() {
		var auth crypto.Authenticator = crypto.NewMACKeyring()
		if ed25519 {
			auth = crypto.NewKeyring()
		}
		rng := rand.New(rand.NewSource(seed + 1))
		for _, id := range tf.Topo.AllNodes() {
			if err := auth.Generate(id, rng); err != nil {
				fmt.Fprintf(out, "sharperd: evidence: rebuilding keyring: %v\n", err)
				return
			}
		}
		verifier = auth
	}

	inbox := fab.Register(evID)
	for id := range tf.Addrs {
		fab.Send(id, &types.Envelope{Type: types.MsgEvidenceRequest, From: evID})
	}
	proofs := make(map[string]*types.FraudProof)
	got := make(map[types.NodeID]bool)
	deadline := time.After(3 * time.Second)
	for len(got) < len(tf.Addrs) {
		select {
		case env := <-inbox:
			if env.Type != types.MsgEvidenceResponse {
				continue
			}
			dump, err := types.DecodeEvidenceDump(env.Payload)
			if err != nil || got[dump.Node] {
				continue
			}
			if _, known := tf.Addrs[dump.Node]; !known {
				continue
			}
			got[dump.Node] = true
			for _, p := range dump.Proofs {
				proofs[p.Key()] = p
			}
		case <-deadline:
			fmt.Fprintf(out, "sharperd: evidence: %d/%d replicas answered\n", len(got), len(tf.Addrs))
			goto report
		}
	}
report:
	if len(proofs) == 0 {
		fmt.Fprintln(out, "slasher: no fraud proofs collected — no equivocation observed")
		return
	}
	perOffender := make(map[types.NodeID]map[types.FraudKind]int)
	invalid := 0
	for _, p := range proofs {
		if err := p.Verify(verifier); err != nil {
			invalid++
			fmt.Fprintf(out, "slasher: REJECTED %s: %v\n", p, err)
			continue
		}
		if perOffender[p.Offender] == nil {
			perOffender[p.Offender] = make(map[types.FraudKind]int)
		}
		perOffender[p.Offender][p.Kind]++
	}
	fmt.Fprintf(out, "slasher: %d distinct fraud proofs, %d offenders, %d failed offline verification\n",
		len(proofs)-invalid, len(perOffender), invalid)
	for _, id := range tf.Topo.AllNodes() {
		kinds, guilty := perOffender[id]
		if !guilty {
			continue
		}
		fmt.Fprintf(out, "slasher: offender %s:", id)
		for _, k := range [...]types.FraudKind{types.FraudDoubleProposal, types.FraudDoubleVote, types.FraudConflictingViewChange} {
			if n := kinds[k]; n > 0 {
				fmt.Fprintf(out, " %s=%d", k, n)
			}
		}
		fmt.Fprintln(out)
	}
}

// dumpTraces asks every replica for its SHARPER_TRACE protocol-event ring
// and writes one trace-node-<id>.log per replica into dir, giving a
// divergence hunt the cross-process evidence the ROADMAP's open fork item
// needs. Replicas running without SHARPER_TRACE answer with empty rings,
// which are noted but not written.
func dumpTraces(fab *tcpnet.Net, tf *TopologyFile, dir string, dumpID types.NodeID, out io.Writer) {
	inbox := fab.Register(dumpID)
	for id := range tf.Addrs {
		fab.Send(id, &types.Envelope{Type: types.MsgTraceRequest, From: dumpID})
	}
	got := make(map[types.NodeID]bool)
	deadline := time.After(3 * time.Second)
	empty := 0
	for len(got) < len(tf.Addrs) {
		select {
		case env := <-inbox:
			if env.Type != types.MsgTraceResponse {
				continue
			}
			dump, err := types.DecodeTraceDump(env.Payload)
			if err != nil || got[dump.Node] {
				continue
			}
			// The dump runs precisely when the audit found divergence, i.e.
			// possibly with a lying replica around: only accept names from
			// the topology so a forged Node cannot clobber another replica's
			// evidence file or satisfy the completion count. (A Byzantine
			// replica can still claim a peer's ID — rings are diagnostic
			// leads, not authenticated evidence.)
			if _, known := tf.Addrs[dump.Node]; !known {
				continue
			}
			got[dump.Node] = true
			if len(dump.Lines) == 0 {
				empty++
				continue
			}
			path := filepath.Join(dir, fmt.Sprintf("trace-node-%d.log", uint32(dump.Node)))
			var buf []byte
			for _, l := range dump.Lines {
				buf = append(buf, l...)
				buf = append(buf, '\n')
			}
			if werr := os.WriteFile(path, buf, 0o644); werr != nil {
				fmt.Fprintf(out, "sharperd: trace dump %s: %v\n", path, werr)
				continue
			}
			fmt.Fprintf(out, "sharperd: wrote %s (%d events)\n", path, len(dump.Lines))
		case <-deadline:
			fmt.Fprintf(out, "sharperd: trace dump: %d/%d replicas answered\n", len(got), len(tf.Addrs))
			return
		}
	}
	if empty > 0 {
		fmt.Fprintf(out, "sharperd: trace dump: %d replicas had empty rings (start them with SHARPER_TRACE=1 to record)\n", empty)
	}
}

// fetchDAG pulls one representative chain per cluster over the sync
// protocol and assembles the Fig. 2 union DAG, giving a driver process the
// same audit a co-located deployment gets from Deployment.DAG().
func fetchDAG(fab *tcpnet.Net, tf *TopologyFile, auditID types.NodeID) (*ledger.DAG, error) {
	inbox := fab.Register(auditID)
	var views []*ledger.View
	for _, cid := range tf.Topo.ClusterIDs() {
		peer := tf.Topo.Members(cid)[0]
		v, err := core.FetchView(fab, auditID, inbox, peer, cid, 500*time.Millisecond)
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	return ledger.NewDAG(views...), nil
}

// ------------------------------------------------------- single process ----

type localOptions struct {
	Clusters, F, CrossPct, Clients int
	Duration                       time.Duration
	Seed                           int64
	Batch                          int
	ShowDAG                        bool
	Accounts                       int
	Balance                        int64
	TCP                            bool
	DataDir                        string
	Sync                           storage.SyncPolicy
	InlineCommit                   bool
	Slash                          bool
	Ed25519                        bool
	Multiregion                    bool
	VerifyWindow                   int
	// Gateway issues the workload through the client-ingress plane.
	Gateway bool
}

// localClient is the issuing surface shared by the facade's direct and
// gateway clients.
type localClient interface {
	Submit(ops []sharper.Op) (sharper.Result, error)
}

// runLocal is the original single-process mode: a full deployment in one
// process, on the simulated fabric or (with -transport tcp) on real
// loopback sockets.
func runLocal(fm sharper.FailureModel, opts localOptions) {
	tr := sharper.TransportSim
	trName := "simulated fabric"
	if opts.TCP {
		tr = sharper.TransportTCP
		trName = "loopback TCP sockets"
	}
	net, err := sharper.New(sharper.Options{
		Model:            fm,
		Clusters:         opts.Clusters,
		F:                opts.F,
		Seed:             opts.Seed,
		BatchSize:        opts.Batch,
		Transport:        tr,
		AccountsPerShard: opts.Accounts,
		InitialBalance:   opts.Balance,
		DataDir:          opts.DataDir,
		Sync:             opts.Sync,
		InlineCommit:     opts.InlineCommit,
		Slash:            opts.Slash,
		Ed25519:          opts.Ed25519,
		Multiregion:      opts.Multiregion,
		VerifyWindow:     opts.VerifyWindow,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer net.Close()

	if opts.Multiregion {
		trName += ", multiregion WAN shaping"
	}
	size := fm.ClusterSize(opts.F)
	fmt.Printf("sharperd: %s model, %d clusters × %d nodes (%d total) over %s, %d%% cross-shard, %d clients, batch≤%d\n",
		fm, opts.Clusters, size, opts.Clusters*size, trName, opts.CrossPct, opts.Clients, opts.Batch)

	gen := workload.New(workload.Config{
		Shards:           state.ShardMap{NumShards: opts.Clusters},
		AccountsPerShard: opts.Accounts,
		CrossShardPct:    opts.CrossPct,
		ShardsPerCross:   2,
		Seed:             opts.Seed,
	})

	var committed, crossDone, shed atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < opts.Clients; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			g := gen.Split(k)
			var c localClient
			if opts.Gateway {
				c = net.NewGatewayClient()
			} else {
				c = net.NewClient()
			}
			for !stop.Load() {
				ops := g.Next()
				res, err := c.Submit(toOps(ops))
				if errors.Is(err, sharper.ErrOverloaded) || errors.Is(err, sharper.ErrExpired) {
					shed.Add(1)
					continue
				}
				if err != nil {
					continue
				}
				committed.Add(1)
				if res.CrossShard {
					crossDone.Add(1)
				}
			}
		}(i)
	}

	start := time.Now()
	ticker := time.NewTicker(time.Second)
	deadline := time.After(opts.Duration)
loop:
	for {
		select {
		case <-ticker.C:
			n := committed.Load()
			fmt.Printf("  t=%4.1fs committed=%6d (%.0f tx/s, %d cross-shard)\n",
				time.Since(start).Seconds(), n, float64(n)/time.Since(start).Seconds(), crossDone.Load())
		case <-deadline:
			break loop
		}
	}
	ticker.Stop()
	stop.Store(true)
	wg.Wait()
	time.Sleep(200 * time.Millisecond) // quiesce

	n := committed.Load()
	fmt.Printf("total: %d transactions (%.0f tx/s), %d cross-shard, %d shed\n",
		n, float64(n)/time.Since(start).Seconds(), crossDone.Load(), shed.Load())
	// Stop the deployment before reading counters and auditing: scheduler
	// counters are a quiesced read, and Close is idempotent under the
	// deferred call above.
	net.Close()
	s := net.SchedStats()
	fmt.Printf("scheduler: leads=%d (hw %d) table=%d grants=%d parks=%d withdraws=%d expiries=%d defers=%d avoided=%d selfwaits=%d\n",
		s.LeadsInFlight, s.LeadHighWater, s.TableSize, s.Grants, s.Parks,
		s.Withdraws, s.LockExpiries, s.Defers, s.DefersAvoided, s.SelfVoteWaits)
	if err := net.Verify(); err != nil {
		log.Fatalf("ledger audit FAILED: %v", err)
	}
	fmt.Println("ledger audit: all views consistent, cross-shard order agrees")
	if opts.Slash {
		proofs := net.FraudProofs()
		if len(proofs) == 0 {
			fmt.Println("slasher: no fraud proofs — no equivocation observed")
		} else {
			// A fault-free local run should never reach here; proofs mean a
			// replica equivocated (or the auditor has a bug worth a report).
			fmt.Printf("slasher: %d fraud proofs collected:\n", len(proofs))
			for _, p := range proofs {
				fmt.Printf("  %s\n", p)
			}
		}
	}
	if opts.ShowDAG {
		fmt.Print(net.DAG().RenderASCII())
	}
}

func toOps(in []types.Op) []sharper.Op {
	out := make([]sharper.Op, len(in))
	copy(out, in)
	return out
}
