package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"sharper/internal/core"
	"sharper/internal/state"
	"sharper/internal/transport"
	"sharper/internal/types"
	gen "sharper/internal/workload"
)

// system is one running deployment plus its pool of gateway clients, all on
// the deployment's single client fabric.
type system struct {
	d       *core.Deployment
	dataDir string
	clients []*core.GatewayClient
	// ready holds the transactions committed while checking readiness.
	ready []committedTx
	// setup is the time from building the deployment until one
	// transaction homed on every cluster had committed through the gateway.
	setup time.Duration
}

// startSystem builds, seeds and starts a deployment, waits until it serves
// (one transaction homed on every cluster commits through the gateway), then
// registers the client pool.
func startSystem(w *workload, seed int64, wrap func(types.NodeID, transport.Fabric) transport.Fabric) (*system, error) {
	t0 := time.Now()
	s := &system{}
	if w.durable {
		dir, err := os.MkdirTemp("", "perfbench-data-")
		if err != nil {
			return nil, fmt.Errorf("data dir: %w", err)
		}
		s.dataDir = dir
	}
	d, err := core.NewDeployment(w.config(seed, s.dataDir, wrap))
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("deployment: %w", err)
	}
	s.d = d
	d.SeedAccounts(accountsPerShard, seedBalance)
	d.Start()
	probe := d.NewGatewayClient()
	for c := 0; c < clusters; c++ {
		from := d.Shards.AccountInShard(types.ClusterID(c), 0)
		to := d.Shards.AccountInShard(types.ClusterID(c), 1)
		tx := probe.MakeTx([]types.Op{{From: from, To: to, Amount: 1}})
		if ok, _, err := probe.Submit(tx); err != nil || !ok {
			s.stop()
			return nil, fmt.Errorf("readiness transfer on cluster %d: committed=%v err=%v", c, ok, err)
		}
		s.ready = append(s.ready, committedTx{id: tx.ID, involved: tx.Involved})
	}
	s.setup = time.Since(t0)
	s.clients = make([]*core.GatewayClient, w.clients)
	for i := range s.clients {
		s.clients[i] = d.NewGatewayClient()
	}
	return s, nil
}

func (s *system) stop() {
	if s.d != nil {
		s.d.Stop()
	}
	if s.dataDir != "" {
		os.RemoveAll(s.dataDir)
	}
}

// issuers adapts the client pool to the open-loop scheduler. Each client keeps
// the library's default retransmission policy.
func (s *system) issuers() []issuer {
	out := make([]issuer, len(s.clients))
	for i, c := range s.clients {
		c := c
		out[i] = func(ops []types.Op) (types.TxID, outcome) {
			tx := c.MakeTx(ops)
			ok, _, err := c.Submit(tx)
			return tx.ID, classifySubmit(ok, err)
		}
	}
	return out
}

// classifySubmit maps a GatewayClient.Submit result to an outcome.
func classifySubmit(committed bool, err error) outcome {
	switch {
	case errors.Is(err, core.ErrOverloaded):
		return outOverloaded
	case errors.Is(err, core.ErrExpired):
		return outExpired
	case err != nil:
		return outTimeout
	case !committed:
		return outRejected
	}
	return outCommitted
}

// committed lists the schedule's committed transactions plus the readiness
// transfers, for the exactly-once audit.
func (s *system) committed(sched []arrival, recs []record) []committedTx {
	out := append([]committedTx(nil), s.ready...)
	shards := state.ShardMap{NumShards: clusters}
	for i, r := range recs {
		if r.out == outCommitted {
			out = append(out, committedTx{id: r.id, involved: shards.Involved(sched[i].ops)})
		}
	}
	return out
}

// opsSource returns the workload's transaction stream for a seed.
func opsSource(w *workload, seed int64) func() ([]types.Op, bool) {
	g := gen.New(gen.Config{
		Shards:           state.ShardMap{NumShards: clusters},
		AccountsPerShard: accountsPerShard, CrossShardPct: w.crossPct,
		ShardsPerCross: 2, Seed: seed,
	})
	return func() ([]types.Op, bool) {
		ops := g.Next()
		return ops, g.IsCross(ops)
	}
}
