package main

import (
	"strings"
	"testing"
	"time"

	"sharper/internal/core"
	"sharper/internal/types"
)

func TestAuditCatchesLedgerFaults(t *testing.T) {
	w := &workload{name: "audit-test", model: types.CrashOnly, transport: core.TransportSim, batch: 1, clients: 1}
	s, err := startSystem(w, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	if err := audit(s.d, s.ready, time.Second); err != nil {
		t.Fatalf("clean deployment failed its audit: %v", err)
	}

	ghost := committedTx{id: types.TxID{Client: types.ClientIDBase + 999, Seq: 1}, involved: types.ClusterSet{0}}
	err = audit(s.d, append(append([]committedTx(nil), s.ready...), ghost), 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "exactly-once") {
		t.Fatalf("a committed verdict missing from the ledger passed the audit (err=%v)", err)
	}

	// One replica's state drifts from its cluster's.
	s.d.Node(s.d.Topo.Members(0)[1]).Store().Credit(s.d.Shards.AccountInShard(0, 0), 1)
	err = audit(s.d, s.ready, 100*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "replica agreement") {
		t.Fatalf("diverged replica state passed the audit (err=%v)", err)
	}
}
