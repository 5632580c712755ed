package sut

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// epochs generates n GS epochs of size events each, sequenced from 1 as
// the server assigns them. empty lists epoch indices (0-based) fed with
// no events, as the server's heartbeat epochs are.
func epochs(n, size int, empty ...int) [][]types.Event {
	gen := workload.NewGS(workload.GSParams{
		Seed: 7, Rows: Rows, Partitions: Shards, Theta: 0.6, Reads: 2, MultiPartitionRatio: 0.2,
	})
	skip := map[int]bool{}
	for _, e := range empty {
		skip[e] = true
	}
	seq := uint64(1)
	out := make([][]types.Event, n)
	for i := range out {
		if skip[i] {
			out[i] = []types.Event{}
			continue
		}
		for j := 0; j < size; j++ {
			ev := gen.Next()
			ev.Seq = seq
			seq++
			out[i] = append(out[i], ev)
		}
	}
	return out
}

func runGroup(t *testing.T, batches [][]types.Event) *shard.Group {
	t.Helper()
	g, err := NewGroup(Shape(), Shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(batches); err != nil {
		t.Fatal(err)
	}
	return g
}

func isReal(o types.Output) bool { return !shard.IsReplication(o) }

func replay(t *testing.T, batches [][]types.Event) *Replay {
	t.Helper()
	r := NewReplay(workload.NewGSApp(Rows), Shards)
	for _, b := range batches {
		if err := r.Extend(b); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestReplayAgreesWithGroupOracle: on a run GroupOracle can replay, the
// lean replay accepts exactly the stores and outputs GroupOracle accepts.
func TestReplayAgreesWithGroupOracle(t *testing.T) {
	batches := epochs(12, 40)
	g := runGroup(t, batches)
	o, err := shard.NewGroupOracle(workload.NewGSApp(Rows), Shards, batches)
	if err != nil {
		t.Fatal(err)
	}
	r := replay(t, batches)
	for s := 0; s < Shards; s++ {
		st := g.Engine(s).Store()
		delivered := shard.RealOutputs(g.DeliveredUnion(s))
		pending := g.Engine(s).PendingOutputsMatching(isReal)
		if err := o.CheckState(s, uint64(len(batches)), st); err != nil {
			t.Fatalf("group oracle: %v", err)
		}
		if err := o.CheckOutputs(s, uint64(len(batches)), delivered, pending); err != nil {
			t.Fatalf("group oracle: %v", err)
		}
		if err := r.CheckState(s, st); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if err := r.CheckOutputs(s, delivered, pending); err != nil {
			t.Fatalf("replay: %v", err)
		}
		if r.RealEvents(s) != o.RealEvents(s, uint64(len(batches))) {
			t.Fatalf("shard %d: replay routed %d events, group oracle %d", s, r.RealEvents(s), o.RealEvents(s, uint64(len(batches))))
		}
	}
}

// TestReplayHeartbeatEpochs: an empty epoch after a writing epoch carries
// replication. The live group anchors it past the highest routed
// sequence; GroupOracle cannot replay it; the replay does and agrees.
func TestReplayHeartbeatEpochs(t *testing.T) {
	batches := epochs(12, 40, 3, 4, 9)
	g := runGroup(t, batches)
	if _, err := shard.NewGroupOracle(workload.NewGSApp(Rows), Shards, batches); err == nil {
		t.Log("GroupOracle now replays heartbeat epochs; the replay's second difference is gone")
	}
	r := replay(t, batches)
	for s := 0; s < Shards; s++ {
		if err := r.CheckState(s, g.Engine(s).Store()); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckOutputs(s, shard.RealOutputs(g.DeliveredUnion(s)), g.Engine(s).PendingOutputsMatching(isReal)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayDetectsDivergence: a wrong value, a lost output and a
// duplicated output each fail the check.
func TestReplayDetectsDivergence(t *testing.T) {
	batches := epochs(10, 40)
	g := runGroup(t, batches)
	r := replay(t, batches)
	k := batches[0][0].Keys[0]
	owner := g.Router().Of(k)
	st := g.Engine(owner).Store()
	st.Set(k, st.Get(k)+1)
	if err := r.CheckState(owner, st); err == nil {
		t.Error("corrupted store passed CheckState")
	}
	delivered := shard.RealOutputs(g.DeliveredUnion(0))
	pending := g.Engine(0).PendingOutputsMatching(isReal)
	if len(delivered) < 2 {
		t.Fatalf("only %d outputs delivered", len(delivered))
	}
	if err := r.CheckOutputs(0, delivered[1:], pending); err == nil {
		t.Error("lost output passed CheckOutputs")
	}
	if err := r.CheckOutputs(0, append(delivered, delivered[0]), pending); err == nil {
		t.Error("duplicated output passed CheckOutputs")
	}
	bad := append([]types.Output(nil), delivered...)
	bad[0].Vals = append([]types.Value{1}, bad[0].Vals...)
	if err := r.CheckOutputs(0, bad, pending); err == nil {
		t.Error("altered output passed CheckOutputs")
	}
}

// Compile-time: the wrappers keep every optional capability the server,
// the engines and the storage helpers probe for.
var (
	_ serve.Backend                         = (*Backend)(nil)
	_ interface{ ShardOf(types.Event) int } = (*Backend)(nil)
	_ interface {
		CommittedAt(uint64) (time.Time, bool)
	} = (*Backend)(nil)
	_ storage.LogReader = (*Device)(nil)
	_ storage.Releaser  = (*Device)(nil)
)

// pump is the part of serve.Backend that drive needs.
type pump interface {
	Feed([]types.Event) error
	Heal(error, shard.Source) (uint64, error)
	Committed() uint64
}

// drive feeds batches the way the server's pump does, healing and
// re-feeding from the recovered epoch on failure, and returns the
// committed frontier after every successful Feed.
func drive(t *testing.T, be pump, beforeFeed func(ep int), batches [][]types.Event) []uint64 {
	t.Helper()
	var frontiers []uint64
	for ep := 1; ep <= len(batches); {
		beforeFeed(ep)
		if err := be.Feed(batches[ep-1]); err != nil {
			rec, herr := be.Heal(err, shard.BatchSource(batches))
			if herr != nil {
				t.Fatal(herr)
			}
			ep = int(rec) + 1
			continue
		}
		frontiers = append(frontiers, be.Committed())
		ep++
	}
	return frontiers
}

type traced struct {
	shards []*storage.Trace
	coord  *storage.Trace
}

func tracedConfig() (shard.Config, traced) {
	cfg := GroupConfig(Shape(), Shards)
	devs, coord := Devices(Shards)
	var tr traced
	for i, d := range devs {
		tr.shards = append(tr.shards, storage.NewTrace(d))
		devs[i] = tr.shards[i]
	}
	tr.coord = storage.NewTrace(coord)
	cfg.Devices, cfg.CoordDev = devs, tr.coord
	return cfg, tr
}

// TestWrappersPreserveBehaviour feeds one epoch list, with one
// whole-group kill, through a bare GroupBackend and through the wrapped
// one: the durable write sequence on every device and the committed
// frontier after every epoch must be identical.
func TestWrappersPreserveBehaviour(t *testing.T) {
	batches := epochs(36, 30, 6)
	const killAt = 29 // the first epoch past KillEvery feeds at KillPhase

	cfg, plainTr := tracedConfig()
	plain, err := serve.NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	killed := false
	plainFront := drive(t, plain, func(ep int) {
		if ep == killAt && !killed {
			plain.KillGroup()
			killed = true
		}
	}, batches)
	plain.Close()

	cfg, wrapTr := tracedConfig()
	rec := NewRecorder()
	capture, err := NewCapture(filepath.Join(t.TempDir(), "ingest"))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range cfg.Devices {
		cfg.Devices[i] = NewDevice(d, i, rec, nil)
	}
	cfg.CoordDev = NewDevice(cfg.CoordDev, CoordDev, rec, capture)
	inner, err := serve.NewGroupBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := NewBackend(inner, rec)
	w.SetKill(true)
	wrapFront := drive(t, w, func(int) {}, batches)
	w.Release()

	if !killed || len(w.Kills()) != 1 {
		t.Fatalf("kills: bare %v, wrapped %d; want one each", killed, len(w.Kills()))
	}
	// The first ack after the heal is stamped on the kill, later ones
	// are not.
	w.AckLog("t1", 4, 0, 0, 0)
	w.AckLog("t0", 9, 0, 0, 0)
	if k := w.Kills()[0]; k.Epoch != killAt || k.HealStart < k.At || k.HealEnd < k.HealStart ||
		k.ResyncStart < k.HealEnd || k.ResyncEnd < k.ResyncStart || k.AckSent < k.ResyncEnd ||
		k.AckTenant != "t1" || k.AckSeq != 4 {
		t.Fatalf("kill record out of order: %+v", k)
	}

	if !reflect.DeepEqual(plainFront, wrapFront) {
		t.Fatalf("committed frontiers differ:\nbare    %v\nwrapped %v", plainFront, wrapFront)
	}
	for i := range plainTr.shards {
		if a, b := plainTr.shards[i].Sites(), wrapTr.shards[i].Sites(); !reflect.DeepEqual(a, b) {
			t.Fatalf("shard %d write sequence differs: bare %d sites, wrapped %d", i, len(a), len(b))
		}
	}
	if a, b := plainTr.coord.Sites(), wrapTr.coord.Sites(); !reflect.DeepEqual(a, b) {
		t.Fatalf("coordinator write sequence differs: bare %d sites, wrapped %d", len(a), len(b))
	}

	// The spans cover each layer, device calls hang off backend calls,
	// and the heal read the log through the forwarded cursor.
	ops := map[string]int{}
	var parented, healReads int
	heal := w.Kills()[0].HealSpan
	for _, s := range rec.Spans() {
		ops[s.Layer+"."+s.Op]++
		if s.Layer == "device" && s.Parent != 0 {
			parented++
		}
		if s.Layer == "device" && s.Op == "read" && s.Parent == heal {
			healReads++
		}
		if s.End < s.Start {
			t.Fatalf("span ends before it starts: %+v", s)
		}
	}
	for _, op := range []string{"backend.feed", "backend.heal", "backend.committed", "device.append", "device.read", "device.blob"} {
		if ops[op] == 0 {
			t.Errorf("no %s span recorded (have %v)", op, ops)
		}
	}
	if parented == 0 || healReads == 0 {
		t.Errorf("device spans under backend calls: %d, reads under the heal: %d", parented, healReads)
	}
}

// TestCaptureRoundTrip reads back every ingest record a capture was
// given, in order, and nothing it was not given.
func TestCaptureRoundTrip(t *testing.T) {
	c, err := NewCapture(filepath.Join(t.TempDir(), "ingest"))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(storage.NewMem(), CoordDev, nil, c)
	want := []storage.Record{
		{Epoch: 1, Payload: []byte("first")},
		{Epoch: 2, Payload: []byte{}},
		{Epoch: 2, Payload: make([]byte, 3<<20)}, // larger than the write buffer
		{Epoch: 300, Payload: []byte("latest")},
	}
	for _, r := range want {
		if err := d.Append(serve.LogIngest, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Append("other", storage.Record{Epoch: 1, Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	dev, err := c.Device()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dev.ReadLog(serve.LogIngest)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read back %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Epoch != want[i].Epoch || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: epoch %d, %d bytes; want epoch %d, %d bytes",
				i, got[i].Epoch, len(got[i].Payload), want[i].Epoch, len(want[i].Payload))
		}
	}
	if other, _ := dev.ReadLog("other"); len(other) != 0 {
		t.Fatalf("captured %d records of another log", len(other))
	}
}
