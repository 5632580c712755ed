package main

import (
	"fmt"

	"morphstreamr/e2ebench/sut"
	"morphstreamr/internal/codec"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// spec is one workload: the traffic the generator offers. The server's
// configuration is the same for every workload.
type spec struct {
	name string
	// GS input shape.
	theta float64
	reads int
	cross float64 // share of reads drawn from another partition
	batch int     // events per batch
	// rate is the open-loop offered load, events/s over all connections.
	rate float64
	// window is the closed-loop batches in flight per connection, and
	// peakBatches how many batches each connection closes in the peak
	// phase per 30 seconds of run: a fixed amount of work, sized to take
	// about the phase's share of the run on a 2-vCPU host.
	window      int
	peakBatches int
	// killRate is the kill phase's open-loop rate: one at which a
	// tenant's queue (QueueCap batches) holds at least 200 ms of
	// arrivals, so a heal and its re-sync do not overflow admission.
	killRate float64
	// openShare and killShare are the shares of the measured seconds the
	// open and kill phases take; the peak phase takes about the rest.
	openShare, killShare float64
}

var specs = []spec{
	{
		// Small batches at a quarter of peak: per-batch serve work and the
		// commit/ack path dominate, TPG and scheduler do almost nothing.
		name: "ingest-uniform", theta: 0, reads: 1, cross: 0, batch: 4,
		rate: 24000, window: 64, peakBatches: 112000, killRate: 8000, openShare: 0.45, killShare: 0.25,
	},
	{
		// Hot keys, four reads, half of them cross-partition, in large
		// batches: the work sits in shard, engine, tpg and scheduler.
		name: "ingest-hot", theta: 0.99, reads: 4, cross: 0.5, batch: 128,
		rate: 60000, window: 8, peakBatches: 8000, killRate: 60000, openShare: 0.45, killShare: 0.25,
	},
	{
		// The serve.Chaos traffic mix under a kill schedule: the work is
		// in MSR recovery, storage reads and shard.GroupRecover.
		name: "recover-kill", theta: 0.6, reads: 2, cross: 0.2, batch: 16,
		rate: 40000, window: 32, peakBatches: 29000, killRate: 40000, openShare: 0.25, killShare: 0.6,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// poolEvents is how many distinct events each connection's input pool
// holds; longer phases cycle through the pool.
const poolEvents = 1 << 18

// pool pre-generates one connection's batches as encoded event payloads
// (the Submit frame body after the batch sequence). Tenant i draws from
// the seed's i-th stream, so the same seed gives the same inputs.
func (s spec) pool(seed int64, tenant int) [][]byte {
	gen := workload.NewGS(workload.GSParams{
		Seed: seed*1000003 + int64(tenant)*101, Rows: sut.Rows, Partitions: sut.Shards,
		Theta: s.theta, Reads: s.reads, MultiPartitionRatio: s.cross,
	})
	out := make([][]byte, poolEvents/s.batch)
	evs := make([]types.Event, s.batch)
	for b := range out {
		for e := range evs {
			evs[e] = gen.Next()
			evs[e].Seq = 0 // the server assigns global sequences
		}
		out[b] = codec.EncodeEvents(evs)
	}
	return out
}
