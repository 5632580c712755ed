package main

import (
	"fmt"

	"morphstreamr/e2ebench/sut"
	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

func isReal(o types.Output) bool { return !shard.IsReplication(o) }

// audit proves a stopped server's run correct. The epochs it fed are
// rebuilt from the captured ingest manifest (latest record per epoch, as
// recovery reads it) and replayed serially; every shard's store must
// equal the replay, the outputs delivered across every incarnation must
// be exactly once and equal to the replayed ones, and every batch the
// server fed must be acked. It returns the fed epochs, index ep-1.
func audit(be *serve.GroupBackend, capture storage.Device, rep *Report) ([][]types.Event, error) {
	g := be.Group()
	rep.Epochs = g.Epoch()
	st, err := serve.RecoverIngest(capture, rep.Epochs)
	if err != nil {
		return nil, fmt.Errorf("audit: captured manifest: %w", err)
	}
	fed := make([][]types.Event, rep.Epochs)
	r := sut.NewReplay(g.App().Inner(), g.Shards())
	for ep := uint64(1); ep <= rep.Epochs; ep++ {
		evs, ok := st.Epochs[ep]
		if !ok {
			return nil, fmt.Errorf("audit: epoch %d missing from the captured manifest", ep)
		}
		fed[ep-1] = evs
		rep.Events += len(evs)
		if err := r.Extend(evs); err != nil {
			return nil, fmt.Errorf("audit: epoch %d: %w", ep, err)
		}
	}
	for s := 0; s < g.Shards(); s++ {
		if err := r.CheckState(s, g.Engine(s).Store()); err != nil {
			return nil, fmt.Errorf("audit: %w (%s)", err, crashFree(fed, r))
		}
		pending := g.Engine(s).PendingOutputsMatching(isReal)
		if err := r.CheckOutputs(s, shard.RealOutputs(be.AllDelivered(s)), pending); err != nil {
			return nil, fmt.Errorf("audit: %w", err)
		}
	}
	rep.Fed = st.Watermarks
	for _, name := range sut.Tenants {
		if rep.Fed[name] != rep.Watermarks[name] {
			return nil, fmt.Errorf("audit: tenant %s fed through batch %d but acked through %d",
				name, rep.Fed[name], rep.Watermarks[name])
		}
	}
	return fed, nil
}

// crashFree feeds the epochs into a fresh group without kills and says
// whether its state agrees with the replay: it tells a recovery fault
// from a disagreement between the engine and the replay.
func crashFree(fed [][]types.Event, r *sut.Replay) string {
	g, err := sut.NewGroup(sut.Shape(), sut.Shards)
	if err != nil {
		return err.Error()
	}
	if err := g.Run(fed); err != nil {
		return "crash-free group: " + err.Error()
	}
	for s := 0; s < g.Shards(); s++ {
		if err := r.CheckState(s, g.Engine(s).Store()); err != nil {
			return "a crash-free group disagrees with the replay too: " + err.Error()
		}
	}
	return "a crash-free group agrees with the replay"
}
