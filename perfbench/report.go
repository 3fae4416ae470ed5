package main

import "time"

// layerInputs is everything a traced run measured.
type layerInputs struct {
	ref, win      *window // untraced reference and traced windows
	refRecs, recs []record
	base, use     usage
	ctr           *sendCounter
	m0, m1        metricSet
	gauges        *gaugeMax
	layers        map[string]int64 // profile CPU ns per layer
	probes        map[string]float64
	capacity      float64 // goodput of the highest passing ladder rung
	members       int     // replicas per cluster
}

// reportLayers sets every per-layer metric. Counts are per committed
// transaction of the traced window; latencies come from the untraced
// reference window.
func reportLayers(res *result, in layerInputs) {
	tx := float64(committedBetween(in.recs, in.use.from, in.use.to))
	per := func(v float64) float64 {
		if tx == 0 {
			return 0
		}
		return v / tx
	}
	d := func(name string) float64 { return delta(in.m0, in.m1, name) }
	p50 := func(name string) float64 { return deltaP50(in.m0, in.m1, name) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	ref := in.ref

	// Client-visible figures, from the untraced reference window. Latency
	// and capacity vary too much across seeds within one run's length to
	// bound a regression, so they are reported here rather than end to end.
	res.set("capacity_tps", "tx/s", in.capacity)
	res.set("p50_ms", "ms", quantileMs(ref.lat, 0.5))
	res.set("intra_p50_ms", "ms", quantileMs(ref.intraLat, 0.5))
	res.set("cross_p50_ms", "ms", quantileMs(ref.crossLat, 0.5))
	res.set("fail_frac", "ratio", ref.failFrac())
	res.set("harness.p99_ms", "ms", quantileMs(ref.lat, 0.99))
	res.set("harness.gen_lag_p99_ms", "ms", quantileMs(ref.lateness, 0.99))
	res.set("harness.drop", "count", float64(ref.counts[outDropped]))
	res.set("harness.overloaded", "count", float64(ref.counts[outOverloaded]))
	res.set("harness.expired", "count", float64(ref.counts[outExpired]))
	res.set("harness.timeout", "count", float64(ref.counts[outTimeout]))
	res.set("harness.rejected", "count", float64(ref.counts[outRejected]))
	refCPU := ratio(float64(in.base.cpu), float64(committedBetween(in.refRecs, in.base.from, in.base.to)))
	res.set("trace.overhead_pct", "%", 100*(ratio(per(float64(in.use.cpu)), refCPU)-1))

	// Gateway and mempool.
	res.set("mempool.admit_ns", "ns", in.probes["mempool.admit_ns"])
	res.set("mempool.drain_ns", "ns", in.probes["mempool.drain_ns"])
	res.set("mempool.mark_committed_ns", "ns", in.probes["mempool.mark_committed_ns"])
	res.set("mempool.admitted_per_tx", "count/tx", per(d("mempool_admitted")))
	res.set("mempool.shed", "count", d("mempool_shed"))
	res.set("mempool.ingest_p50_us", "us", p50("mempool_ingest_us"))

	// Fabric and codec.
	res.set("transport.msgs_per_tx", "msgs/tx", per(float64(in.ctr.msgs.Load())))
	res.set("transport.bytes_per_tx", "bytes/tx", per(float64(in.ctr.bytes.Load())))
	res.set("transport.send_ns", "ns", ratio(float64(in.ctr.sendNs.Load()), float64(in.ctr.msgs.Load())))
	res.set("types.encode_ns", "ns", in.probes["types.encode_ns"])
	res.set("types.decode_ns", "ns", in.probes["types.decode_ns"])

	// Verify pool.
	res.set("crypto.verify_ns", "ns", in.probes["crypto.verify_ns"])
	res.set("crypto.verify_batch16_ns", "ns", in.probes["crypto.verify_batch16_ns"])
	res.set("crypto.frame_mac_ns", "ns", in.probes["crypto.frame_mac_ns"])
	res.set("crypto.envelopes_per_tx", "count/tx", per(d("verify_envelopes")))
	res.set("crypto.window_occupancy_p50", "count", p50("verify_window_occupancy"))
	res.set("crypto.bisects", "count", d("verify_bisects"))

	// Intra-shard consensus.
	res.set("paxos.view_changes", "count", d("paxos_view_changes"))
	res.set("paxos.straggler_drops", "count", d("paxos_straggler_drops"))
	res.set("pbft.view_changes", "count", d("pbft_view_changes"))
	res.set("pbft.straggler_drops", "count", d("pbft_straggler_drops"))
	res.set("stage.intra_prepared_p50_us", "us", p50("stage_intra_prepared_us"))

	// Conflict table and cross-shard coordinator.
	res.set("consensus.acquire_release_ns", "ns", in.probes["consensus.acquire_release_ns"])
	res.set("sched.grants_per_cross", "count/tx", ratio(d("sched_grants"), float64(len(in.win.crossLat))))
	res.set("sched.defers", "count", d("sched_defers"))
	res.set("sched.parks", "count", d("sched_parks"))
	res.set("sched.withdraws", "count", d("sched_withdraws"))
	res.set("sched.lock_expiries", "count", d("sched_lock_expiries"))
	res.set("sched.decide_ratio", "ratio", ratio(d("sched_decides"), d("sched_proposes")))
	res.set("stage.intra_seal_p50_us", "us", p50("stage_intra_seal_us"))
	res.set("stage.cross_prepared_p50_us", "us", p50("stage_cross_prepared_us"))

	// Executor and state.
	res.set("state.apply_ns", "ns", in.probes["state.apply_ns"])
	res.set("state.validate_ns", "ns", in.probes["state.validate_ns"])
	res.set("exec.apply_lag_max", "count", float64(in.gauges.max["apply_lag"]))
	res.set("exec.pipeline_depth_max", "count", float64(in.gauges.max["pipeline_depth"]))
	res.set("stage.intra_executed_p50_us", "us", p50("stage_intra_executed_us"))

	// Storage.
	res.set("storage.append_batch_us", "us", in.probes["storage.append_batch_us"])
	res.set("storage.fsync_us", "us", in.probes["storage.fsync_us"])
	res.set("storage.wal_bytes_per_tx", "bytes/tx", per(d("storage_wal_bytes")))
	res.set("storage.fsync_p50_us", "us", p50("storage_fsync_us"))

	// CPU by layer, from the profile.
	var named int64
	for _, l := range cpuLayers {
		ns := in.layers[l]
		res.set("cpu."+l+"_us_per_tx", "us/tx", per(float64(ns)/float64(time.Microsecond)))
		if l != "other" {
			named += ns
		}
	}
	res.set("cpu.attributed_pct", "%", 100*ratio(float64(named), float64(in.use.cpu)))

	// Probe timings multiplied by the traced run's per-transaction counts:
	// what a layer's measured calls cost per committed transaction, to set
	// beside its profiled CPU above.
	v := func(name string) float64 { return res.Metrics[name].Value }
	applies := float64(in.members) * (1 + ratio(float64(len(in.win.crossLat)), float64(len(in.win.lat))))
	res.set("est.mempool_us_per_tx", "us/tx",
		(v("mempool.admit_ns")+v("mempool.drain_ns")+v("mempool.mark_committed_ns"))*v("mempool.admitted_per_tx")/1e3)
	res.set("est.transport_us_per_tx", "us/tx", v("transport.send_ns")*v("transport.msgs_per_tx")/1e3)
	res.set("est.types_us_per_tx", "us/tx", (v("types.encode_ns")+v("types.decode_ns"))*v("transport.msgs_per_tx")/1e3)
	res.set("est.crypto_us_per_tx", "us/tx", v("crypto.verify_ns")*v("crypto.envelopes_per_tx")/1e3)
	res.set("est.state_us_per_tx", "us/tx", v("state.apply_ns")*applies/1e3)
}
