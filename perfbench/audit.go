package main

import (
	"fmt"
	"time"

	"sharper/internal/core"
	"sharper/internal/ledger"
	"sharper/internal/types"
)

// committedTx is a transaction the harness saw commit, with the clusters
// whose ledgers must hold it.
type committedTx struct {
	id       types.TxID
	involved types.ClusterSet
}

// audit is the correctness gate run after load stops. It first waits, up to
// bound, for the deployment to converge: every cross-shard block held by one
// involved cluster is held by all of them, and every replica of a cluster has
// applied the same state. Only then does it judge, so a view that is merely
// a few milliseconds behind is not reported as a missing block. The checks
// are the DAG's per-view chains and cross-shard agreement, pairwise order of
// cross-shard transactions, conservation of the total balance, and that each
// transaction the harness saw commit appears exactly once in every involved
// cluster's ledger.
func audit(d *core.Deployment, committed []committedTx, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for !converged(d) && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	dag := d.DAG()
	if err := dag.Verify(); err != nil {
		return fmt.Errorf("DAG.Verify: %w", err)
	}
	if err := dag.VerifyPairwiseOrder(); err != nil {
		return fmt.Errorf("VerifyPairwiseOrder: %w", err)
	}
	if err := checkReplicaAgreement(d); err != nil {
		return err
	}
	want := int64(clusters*accountsPerShard) * seedBalance
	var total int64
	for _, c := range d.Topo.ClusterIDs() {
		total += d.Node(d.Topo.Members(c)[0]).Store().Total()
	}
	if total != want {
		return fmt.Errorf("conservation: total balance %d, want %d", total, want)
	}
	return checkExactlyOnce(d, committed)
}

// converged reports whether cross-shard blocks have reached every involved
// cluster and every cluster's replicas agree on their applied state.
func converged(d *core.Deployment) bool {
	views := viewsByCluster(d)
	for _, v := range views {
		for _, b := range v.CrossShardBlocks() {
			for _, tx := range b.Txs {
				for _, c := range tx.Involved {
					if !views[c].Contains(tx.ID) {
						return false
					}
				}
			}
		}
	}
	return checkReplicaAgreement(d) == nil
}

// viewsByCluster returns the representative ledger view of each cluster.
func viewsByCluster(d *core.Deployment) map[types.ClusterID]*ledger.View {
	out := make(map[types.ClusterID]*ledger.View)
	for _, v := range d.ClusterViews() {
		out[v.Cluster()] = v
	}
	return out
}

// checkReplicaAgreement compares every replica's state fingerprint with its
// cluster's first member.
func checkReplicaAgreement(d *core.Deployment) error {
	for _, c := range d.Topo.ClusterIDs() {
		members := d.Topo.Members(c)
		ref := d.Node(members[0]).Store().Fingerprint()
		for _, id := range members[1:] {
			if fp := d.Node(id).Store().Fingerprint(); fp != ref {
				return fmt.Errorf("replica agreement: %s state %s differs from %s state %s", id, fp, members[0], ref)
			}
		}
	}
	return nil
}

// checkExactlyOnce verifies that no cluster's ledger holds a transaction
// twice and that every transaction the harness saw commit is in the ledger of
// each cluster it involves.
func checkExactlyOnce(d *core.Deployment, committed []committedTx) error {
	views := viewsByCluster(d)
	for _, v := range views {
		seen := make(map[types.TxID]bool)
		for _, b := range v.Blocks()[1:] {
			for _, tx := range b.Txs {
				if seen[tx.ID] {
					return fmt.Errorf("exactly-once: %s committed twice in cluster %s", tx.ID, v.Cluster())
				}
				seen[tx.ID] = true
			}
		}
	}
	for _, tx := range committed {
		for _, c := range tx.involved {
			if !views[c].Contains(tx.id) {
				return fmt.Errorf("exactly-once: committed %s missing from cluster %s", tx.id, c)
			}
		}
	}
	return nil
}
