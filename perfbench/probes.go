package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"sharper/internal/consensus"
	"sharper/internal/crypto"
	"sharper/internal/mempool"
	"sharper/internal/state"
	"sharper/internal/storage"
	"sharper/internal/types"
)

// Layer probes time each layer's public functions from outside, on the
// workload's own generated transactions and on envelopes the traced run
// actually sent. Each probe repeats its pass probeRounds times and keeps the
// median, reported per call.

const (
	probeTxs    = 1024
	probeRounds = 5
)

// medianNs runs setup (untimed) then pass, probeRounds times, and returns
// the median of pass's elapsed time per op in nanoseconds.
func medianNs(ops int, setup, pass func()) float64 {
	if ops == 0 {
		return 0
	}
	vals := make([]float64, probeRounds)
	for i := range vals {
		if setup != nil {
			setup()
		}
		t := time.Now()
		pass()
		vals[i] = float64(time.Since(t).Nanoseconds()) / float64(ops)
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}

// probeTransactions generates the workload's transactions as a gateway
// client would build them.
func probeTransactions(w *workload, seed int64) []*types.Transaction {
	shards := state.ShardMap{NumShards: clusters}
	next := opsSource(w, seed)
	client := types.ClientIDBase + 1
	txs := make([]*types.Transaction, probeTxs)
	for i := range txs {
		ops, _ := next()
		txs[i] = &types.Transaction{
			ID: types.TxID{Client: client, Seq: uint64(i + 1)}, Client: client,
			Timestamp: time.Now().UnixNano(), Ops: ops, Involved: shards.Involved(ops),
		}
	}
	return txs
}

// probeLayers runs every probe and returns per-call timings keyed by metric
// name. samples are encoded envelopes captured by the traced run.
func probeLayers(w *workload, seed int64, samples [][]byte) (map[string]float64, error) {
	txs := probeTransactions(w, seed)
	out := make(map[string]float64)
	probeMempool(txs, out)
	if err := probeCodec(samples, out); err != nil {
		return nil, err
	}
	if err := probeCrypto(samples, seed, out); err != nil {
		return nil, err
	}
	probeConflictTable(txs, out)
	probeState(txs, out)
	if w.durable {
		if err := probeStorage(w, txs, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func probeMempool(txs []*types.Transaction, out map[string]float64) {
	var pool *mempool.Pool
	admitAll := func() {
		pool = mempool.New(mempool.Config{})
		now := time.Now()
		for _, tx := range txs {
			pool.Admit(tx, now)
		}
	}
	// Drain in sealer-sized chunks, as the primary's pump does.
	drainAll := func() {
		for len(pool.Drain(16)) > 0 {
		}
	}
	out["mempool.admit_ns"] = medianNs(len(txs), nil, admitAll)
	out["mempool.drain_ns"] = medianNs(len(txs), admitAll, drainAll)
	out["mempool.mark_committed_ns"] = medianNs(len(txs), func() { admitAll(); drainAll() }, func() {
		now := time.Now()
		for _, tx := range txs {
			pool.MarkCommitted(tx.Digest(), now)
		}
	})
}

// probeCodec times decoding each captured envelope with its typed payload,
// and encoding it back (payload, then envelope).
func probeCodec(samples [][]byte, out map[string]float64) error {
	envs := make([]*types.Envelope, len(samples))
	payloads := make([]encoder, len(samples))
	for i, b := range samples {
		env, _, err := types.DecodeEnvelope(b)
		if err != nil {
			return fmt.Errorf("probe: captured envelope %d: %w", i, err)
		}
		envs[i], payloads[i] = env, decodePayload(env)
	}
	out["types.decode_ns"] = medianNs(len(samples), nil, func() {
		for _, b := range samples {
			env, _, _ := types.DecodeEnvelope(b)
			decodePayload(env)
		}
	})
	buf := make([]byte, 0, 4096)
	pbuf := make([]byte, 0, 4096)
	out["types.encode_ns"] = medianNs(len(envs), nil, func() {
		for i, env := range envs {
			if payloads[i] != nil {
				pbuf = payloads[i].Encode(pbuf[:0])
				env.Payload = pbuf
			}
			buf = env.Encode(buf[:0])
		}
	})
	return nil
}

// encoder is a decoded payload that can encode itself again.
type encoder interface{ Encode(dst []byte) []byte }

// decodePayload decodes the typed payload of the message kinds the
// benchmark's traffic consists of (nil for any other kind, or on error).
func decodePayload(env *types.Envelope) encoder {
	var (
		e   encoder
		err error
	)
	switch env.Type {
	case types.MsgSubmit:
		e, err = types.DecodeSubmit(env.Payload)
	case types.MsgSubmitReply:
		e, err = types.DecodeSubmitReply(env.Payload)
	case types.MsgReply:
		e, err = types.DecodeReply(env.Payload)
	case types.MsgPaxosAccept, types.MsgPaxosAccepted, types.MsgPaxosCommit,
		types.MsgPrePrepare, types.MsgPrepare, types.MsgCommit,
		types.MsgXPropose, types.MsgXAccept, types.MsgXCommit, types.MsgXAbort:
		e, err = types.DecodeConsensusMsg(env.Payload)
	}
	if err != nil {
		return nil
	}
	return e
}

// probeCrypto times MAC authenticator verification of the captured payloads
// (singly and in windows of 16, as the verify pool batches them) and the
// TCP frame HMAC over the encoded envelopes.
func probeCrypto(samples [][]byte, seed int64, out map[string]float64) error {
	kr := crypto.NewMACKeyring()
	rng := rand.New(rand.NewSource(seed))
	const signer = types.NodeID(1)
	if err := kr.Generate(signer, rng); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	s, err := kr.SignerFor(signer)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	n := len(samples)
	from := make([]types.NodeID, n)
	payloads := make([][]byte, n)
	sigs := make([][]byte, n)
	for i, b := range samples {
		env, _, err := types.DecodeEnvelope(b)
		if err != nil {
			return fmt.Errorf("probe: captured envelope %d: %w", i, err)
		}
		from[i], payloads[i], sigs[i] = signer, env.Payload, s.Sign(env.Payload)
	}
	out["crypto.verify_ns"] = medianNs(n, nil, func() {
		for i := range payloads {
			kr.Verify(from[i], payloads[i], sigs[i])
		}
	})
	windows := n / 16
	out["crypto.verify_batch16_ns"] = medianNs(windows, nil, func() {
		for i := 0; i+16 <= n; i += 16 {
			kr.VerifyBatch(from[i:i+16], payloads[i:i+16], sigs[i:i+16])
		}
	})
	fa := kr.FrameAuth(crypto.WireKey("perfbench"))
	tag := make([]byte, 0, 64)
	out["crypto.frame_mac_ns"] = medianNs(n, nil, func() {
		for _, b := range samples {
			tag = fa.AppendTag(tag[:0], b)
		}
	})
	return nil
}

// probeConflictTable times one slot-vote acquire and release per
// cross-shard transaction.
func probeConflictTable(txs []*types.Transaction, out map[string]float64) {
	var cross []*types.Transaction
	for _, tx := range txs {
		if tx.IsCrossShard() {
			cross = append(cross, tx)
		}
	}
	if len(cross) == 0 {
		cross = txs // the table's cost does not depend on the mix
	}
	digests := make([]types.Hash, len(cross))
	for i, tx := range cross {
		digests[i] = tx.Digest()
	}
	t := consensus.NewConflictTable(0)
	deadline := time.Now().Add(time.Hour)
	out["consensus.acquire_release_ns"] = medianNs(len(cross), nil, func() {
		for i, d := range digests {
			t.Acquire(d, cross[i].Involved, uint64(i), d, deadline)
			t.Release(d)
		}
	})
}

// probeState times validation and application of each transaction against
// its home shard's store.
func probeState(txs []*types.Transaction, out map[string]float64) {
	shards := state.ShardMap{NumShards: clusters}
	stores := make([]*state.Store, clusters)
	for c := range stores {
		stores[c] = state.NewStore(types.ClusterID(c), shards)
		for k := 0; k < accountsPerShard; k++ {
			stores[c].Credit(shards.AccountInShard(types.ClusterID(c), uint64(k)), seedBalance)
		}
	}
	out["state.validate_ns"] = medianNs(len(txs), nil, func() {
		for _, tx := range txs {
			stores[tx.Involved[0]].Validate(tx)
		}
	})
	out["state.apply_ns"] = medianNs(len(txs), nil, func() {
		for _, tx := range txs {
			stores[tx.Involved[0]].Apply(tx)
		}
	})
}

// probeStorage times the commit pipeline's group append of one batch-sized
// block and the fsync that makes it durable, under the workload's sync
// policy, in a temporary directory.
func probeStorage(w *workload, txs []*types.Transaction, out map[string]float64) error {
	dir, err := os.MkdirTemp("", "perfbench-probe-")
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer os.RemoveAll(dir)
	st, err := storage.Open(dir, storage.Options{Sync: w.sync})
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	defer st.Close()
	const blocks = 32
	appendUs := make([]float64, 0, blocks)
	fsyncUs := make([]float64, 0, blocks)
	for i := 0; i < blocks; i++ {
		lo := (i * w.batch) % len(txs)
		hi := lo + w.batch
		if hi > len(txs) {
			hi = len(txs)
		}
		b := &types.Block{Txs: txs[lo:hi], Parents: []types.Hash{{}}}
		t := time.Now()
		st.AppendCommitBatch([]storage.CommitRecord{{Seq: uint64(i + 1), Valid: ^uint64(0), Block: b}})
		appendUs = append(appendUs, float64(time.Since(t).Nanoseconds())/1e3)
		t = time.Now()
		st.Flush()
		fsyncUs = append(fsyncUs, float64(time.Since(t).Nanoseconds())/1e3)
	}
	sort.Float64s(appendUs)
	sort.Float64s(fsyncUs)
	out["storage.append_batch_us"] = appendUs[blocks/2]
	out["storage.fsync_us"] = fsyncUs[blocks/2]
	return nil
}
