package main

import (
	"sync"
	"sync/atomic"
	"time"

	"sharper/internal/core"
	"sharper/internal/obs"
	"sharper/internal/transport"
	"sharper/internal/types"
)

// sampleCap bounds how many sent envelopes the traced run keeps as inputs
// for the encode/decode and crypto probes.
const sampleCap = 512

// sendCounter is the traced run's view of the transport layer, installed
// through core.Config.WrapFabric on every replica. While armed it counts the
// messages and wire bytes the replicas send, times the fabric's Send and
// Multicast calls, and keeps the first sampleCap envelopes as encoded bytes.
type sendCounter struct {
	armed  atomic.Bool
	msgs   atomic.Int64
	bytes  atomic.Int64
	sendNs atomic.Int64

	mu      sync.Mutex
	samples [][]byte
}

// wrap is the core.Config.WrapFabric hook.
func (c *sendCounter) wrap(_ types.NodeID, f transport.Fabric) transport.Fabric {
	return &countingFabric{Fabric: f, c: c}
}

// note accounts one Send (n=1) or Multicast (n destinations) of env.
func (c *sendCounter) note(env *types.Envelope, n int, took time.Duration) {
	c.msgs.Add(int64(n))
	// Envelope.Encode's layout: type, sender, length-prefixed payload and
	// signature.
	c.bytes.Add(int64(n * (1 + 4 + 4 + len(env.Payload) + 2 + len(env.Sig))))
	c.sendNs.Add(int64(took))
	c.mu.Lock()
	if len(c.samples) < sampleCap {
		c.samples = append(c.samples, env.Encode(nil))
	}
	c.mu.Unlock()
}

type countingFabric struct {
	transport.Fabric
	c *sendCounter
}

func (f *countingFabric) Send(to types.NodeID, env *types.Envelope) {
	if !f.c.armed.Load() {
		f.Fabric.Send(to, env)
		return
	}
	t := time.Now()
	f.Fabric.Send(to, env)
	f.c.note(env, 1, time.Since(t))
}

func (f *countingFabric) Multicast(to []types.NodeID, env *types.Envelope) {
	if !f.c.armed.Load() {
		f.Fabric.Multicast(to, env)
		return
	}
	t := time.Now()
	f.Fabric.Multicast(to, env)
	f.c.note(env, len(to), time.Since(t))
}

// metricSet is a fleet-wide merged registry snapshot keyed by series name.
type metricSet map[string]obs.Metric

func snapshotMetrics(d *core.Deployment) metricSet {
	out := make(metricSet)
	for _, m := range d.MetricsSnapshot() {
		out[m.Name] = m
	}
	return out
}

// delta returns how much a counter (or cumulative gauge) grew from a to b.
func delta(a, b metricSet, name string) float64 {
	x, y := a[name].Value, b[name].Value
	if y < x {
		return 0
	}
	return float64(y - x)
}

// deltaP50 returns the median of the observations a histogram received
// between snapshots a and b (0 when it received none).
func deltaP50(a, b metricSet, name string) float64 {
	after, ok := b[name]
	if !ok || after.Kind != obs.KindHistogram {
		return 0
	}
	before := a[name]
	buckets := make([]uint64, len(after.Buckets))
	for i := range buckets {
		buckets[i] = after.Buckets[i]
		if i < len(before.Buckets) {
			buckets[i] -= before.Buckets[i]
		}
	}
	return float64(obs.QuantileFromBuckets(buckets, after.Count-before.Count, 0.5))
}

// gaugeMax tracks the largest value any single replica reported for a set
// of per-node gauges, sampled while the traced window runs.
type gaugeMax struct {
	names []string
	max   map[string]uint64
}

func newGaugeMax(names ...string) *gaugeMax {
	return &gaugeMax{names: names, max: make(map[string]uint64)}
}

func (g *gaugeMax) sample(d *core.Deployment) {
	for _, n := range d.Nodes() {
		for _, m := range n.Metrics().Snapshot() {
			for _, name := range g.names {
				if m.Name == name && m.Value > g.max[name] {
					g.max[name] = m.Value
				}
			}
		}
	}
}
