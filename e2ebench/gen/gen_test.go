package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"

	"morphstreamr/e2ebench/sut"
	"morphstreamr/internal/codec"
	"morphstreamr/internal/serve"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

func TestAppendSubmitMatchesEncodeSubmit(t *testing.T) {
	gen := workload.NewGS(workload.GSParams{Seed: 3, Rows: sut.Rows, Partitions: sut.Shards, Reads: 2})
	evs := []types.Event{gen.Next(), gen.Next(), gen.Next()}
	for _, seq := range []uint64{1, 127, 128, 1 << 40} {
		want := serve.EncodeSubmit(seq, evs)
		if got := appendSubmit(nil, seq, codec.EncodeEvents(evs)); !bytes.Equal(got, want) {
			t.Fatalf("seq %d: frame %x, want %x", seq, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesGenerator: BENCHMARK.json names exactly the
// workloads and metrics the generator reports, with the same units.
func TestBenchmarkJSONMatchesGenerator(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the generator", len(cfg.Workloads), len(specs))
	}
	for i, w := range cfg.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the generator", i, w.Name, specs[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the generator", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the generator", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", cfg.EndToEnd, endToEnd)
	check("per_layer", cfg.PerLayer, perLayer)
}

// TestLaneSurvivesResetAndSlowdown drives an in-process server through
// both loops, a severed connection and a queue overflow: the lane must
// count the failed attempts, resend, and end with every batch acked once.
func TestLaneSurvivesResetAndSlowdown(t *testing.T) {
	cfg := sut.GroupConfig(sut.Shape(), sut.Shards)
	cfg.Devices, cfg.CoordDev = sut.Devices(sut.Shards)
	be, err := serve.NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A queue of 4 batches overflows under the 16-batch closed loop.
	srv, err := serve.New(serve.Config{Backend: be, Tenants: []serve.TenantConfig{{Name: "t0", QueueCap: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sp := specs[2]
	pool := sp.pool(1, 0)[:64]
	l, err := dialLane(srv.Addr(), "t0", pool)
	if err != nil {
		t.Fatal(err)
	}
	l.openLoop(time.Now(), time.Millisecond, 50)
	l.mu.Lock()
	l.conn.Close() // a reset: the reader must redial and resend
	l.mu.Unlock()
	l.closedLoop(200, 16)
	if err := l.drain(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	l.close()
	recs, attempted, failed, violations, err := l.snapshot()
	if err != nil || violations != 0 {
		t.Fatalf("snapshot: err %v, %d ack violations", err, violations)
	}
	if len(recs) != 250 || attempted < 250 || failed == 0 {
		t.Fatalf("%d batches, %d attempts, %d failed; want 250 batches and some failed attempts", len(recs), attempted, failed)
	}
	if wm, _ := srv.Tenant("t0"); wm != 250 {
		t.Fatalf("server watermark %d, want 250", wm)
	}
}
