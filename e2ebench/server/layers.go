package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"morphstreamr/e2ebench/sut"
	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/types"
)

// mark is the layers' read-out at one phase boundary. The group's own
// counters are read on the pump goroutine (sut.Backend.OnPump).
type mark struct {
	name   string
	t      int64
	epoch  uint64
	group  *shard.Group
	stats  int
	fed    []int
	rt     [3]time.Duration // engine io, tracking, sync, summed over shards
	evs    int
	sched  map[string]any
	morph  int64
	gostat goStats
	// journeys completed since the previous mark.
	journeys []journey.Record
}

type goStats struct {
	gcCPU, usedCPU float64 // seconds
	heapLive       float64 // bytes
	pauses         *metrics.Float64Histogram
}

func readGo() goStats {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	g := goStats{}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = s[0].Value.Float64()
		g.usedCPU = s[1].Value.Float64() - s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		g.heapLive = float64(s[3].Value.Uint64())
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		g.pauses = s[4].Value.Float64Histogram()
	}
	return g
}

func (s *server) mark(name string) {
	m := mark{name: name}
	s.be.OnPump(func(gb *serve.GroupBackend) {
		g := gb.Group()
		m.t = time.Now().UnixNano()
		m.epoch, m.group, m.stats = g.Epoch(), g, len(g.EpochStats())
		for i := 0; i < g.Shards(); i++ {
			m.fed = append(m.fed, g.FedReal(i))
			rt := g.Engine(i).Runtime()
			m.rt[0] += rt.IO
			m.rt[1] += rt.Tracking
			m.rt[2] += rt.Sync
			m.evs += g.Engine(i).Events()
		}
		snap := s.obs.Registry().Snapshot()
		m.sched = snap.Providers["scheduler"]
		m.morph = snap.Counters["adaptive.morphs"]
	})
	m.gostat = readGo()
	m.journeys, _ = s.jr.Drain()
	s.marks = append(s.marks, m)
}

// windows returns the marks opening and closing every window of the
// named phase (one per round).
func (s *server) windows(name string) [][2]mark {
	var out [][2]mark
	for i := 0; i+1 < len(s.marks); i++ {
		if s.marks[i].name == name {
			out = append(out, [2]mark{s.marks[i], s.marks[i+1]})
		}
	}
	return out
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return obs.Percentile(s, q)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func schedDelta(m0, m1 mark, key string) float64 {
	get := func(m mark) float64 {
		if v, ok := m.sched[key].(int64); ok {
			return float64(v)
		}
		return 0
	}
	return get(m1) - get(m0)
}

// layers reads the per-layer metrics out of the spans and phase marks.
// Each metric is taken over the phase whose end-to-end metric it should
// move: open (ack latency), peak (throughput and CPU), kill (recovery).
func (s *server) layers(fed [][]types.Event, kills []sut.Kill) map[string]float64 {
	out := map[string]float64{}
	spans := s.rec.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	in := func(w [2]mark, keep func(sut.Span) bool) []sut.Span {
		var got []sut.Span
		for _, sp := range spans {
			if sp.Start >= w[0].t && sp.Start < w[1].t && keep(sp) {
				got = append(got, sp)
			}
		}
		return got
	}
	isFeed := func(sp sut.Span) bool { return sp.Layer == "backend" && sp.Op == "feed" }

	// Open-loop windows.
	var feeds, empty, cover, wall float64
	var gaps, lags []float64
	var journeys []journey.Record
	for _, w := range s.windows("open") {
		fs := in(w, isFeed)
		for i, f := range fs {
			feeds++
			if f.Events == 0 {
				empty++
			}
			// The Feeds and the gaps between them cover the pump's wall.
			cover += float64(f.End - f.Start)
			if i+1 < len(fs) {
				gaps = append(gaps, ms(fs[i+1].Start-f.End))
				cover += float64(fs[i+1].Start - f.End)
			}
		}
		// The pump's wall runs from the window's first Feed, past the
		// generator's lead before its first due send, to the next mark.
		if len(fs) > 0 {
			wall += float64(w[1].t - fs[0].Start)
		}
		var lastFed uint64
		for _, sp := range in(w, func(sp sut.Span) bool { return sp.Layer == "backend" }) {
			switch sp.Op {
			case "feed":
				lastFed = sp.Epoch
			case "committed":
				if lastFed >= sp.Epoch {
					lags = append(lags, float64(lastFed-sp.Epoch))
				}
			}
		}
		journeys = append(journeys, w[1].journeys...)
	}
	out["serve.heartbeat_share"] = ratio(empty, feeds)
	out["serve.feed_gap_ms"] = median(gaps)
	out["reconcile.pump_cover"] = ratio(cover, wall)
	out["shard.commit_lag_epochs"] = mean(lags)
	sum := journey.Summarize(journeys)
	out["serve.stage.queue_ms"] = sum.Stages[journey.StageQueue].P50Ms
	out["serve.stage.commit_ms"] = sum.Stages[journey.StageCommit].P50Ms
	out["serve.stage.execute_ms"] = sum.Stages[journey.StageExecute].P50Ms
	out["serve.journeys"] = float64(sum.Journeys)

	// Closed-loop peak windows.
	var durs, sizes, barrier, skew []float64
	var busy, events, gcCPU, usedCPU, epochs, steals, fails, parks, morphs, evs float64
	wall = 0
	rt := [3]float64{}
	routed := make([]float64, sut.Shards)
	dev := map[string]*[3]float64{} // log -> appends, µs, bytes
	var peakEpochs [][2]uint64
	for _, w := range s.windows("peak") {
		m0, m1 := w[0], w[1]
		wall += float64(m1.t - m0.t)
		for _, f := range in(w, isFeed) {
			busy += float64(f.End - f.Start)
			events += float64(f.Events)
			if f.Events > 0 {
				durs = append(durs, ms(f.End-f.Start))
				sizes = append(sizes, float64(f.Events))
			}
		}
		for _, sp := range in(w, func(sp sut.Span) bool { return sp.Layer == "device" && sp.Op == "append" }) {
			acc := dev[sp.Name]
			if acc == nil {
				acc = &[3]float64{}
				dev[sp.Name] = acc
			}
			acc[0]++
			acc[1] += float64(sp.End-sp.Start) / 1e3
			acc[2] += float64(sp.Bytes)
		}
		gcCPU += m1.gostat.gcCPU - m0.gostat.gcCPU
		usedCPU += m1.gostat.usedCPU - m0.gostat.usedCPU
		peakEpochs = append(peakEpochs, [2]uint64{m0.epoch, m1.epoch})
		if m0.group != m1.group {
			continue // a heal inside the window replaced the group
		}
		for _, st := range m1.group.EpochStats()[m0.stats:m1.stats] {
			barrier = append(barrier, ms(int64(st.BarrierWall)))
			var max, sum float64
			for _, d := range st.ShardWalls {
				sum += float64(d)
				max = math.Max(max, float64(d))
			}
			if sum > 0 {
				skew = append(skew, max/(sum/float64(len(st.ShardWalls))))
			}
		}
		for i := range m1.fed {
			routed[i] += float64(m1.fed[i] - m0.fed[i])
		}
		for i := range rt {
			rt[i] += float64(m1.rt[i] - m0.rt[i])
		}
		evs += float64(m1.evs - m0.evs)
		epochs += float64(m1.stats - m0.stats)
		steals += schedDelta(m0, m1, "steals")
		fails += schedDelta(m0, m1, "steal_fails")
		parks += schedDelta(m0, m1, "parks")
		morphs += float64(m1.morph - m0.morph)
	}
	out["serve.events_per_epoch"] = mean(sizes)
	out["shard.feed_ms.p50"] = quantile(durs, 0.5)
	out["shard.feed_ms.p99"] = quantile(durs, 0.99)
	out["shard.busy_share"] = ratio(busy, wall)
	for _, log := range []string{"ingest", "input", "ft", "ckpt", "frontier"} {
		acc := dev[log]
		if acc == nil {
			acc = &[3]float64{}
		}
		key := "storage." + log + ".append_us"
		if log == "ingest" {
			key = "serve.manifest_append_us"
		}
		out[key] = ratio(acc[1], acc[0])
		out["storage."+log+".bytes_per_event"] = ratio(acc[2], events)
	}
	out["go.gc_cpu_share"] = ratio(gcCPU, usedCPU)
	out["shard.barrier_ms"] = mean(barrier)
	out["shard.wall_skew"] = mean(skew)
	var maxRouted, sumRouted float64
	for _, r := range routed {
		maxRouted = math.Max(maxRouted, r)
		sumRouted += r
	}
	out["shard.route_skew"] = ratio(maxRouted, sumRouted/float64(len(routed)))
	out["engine.io_ns_per_event"] = ratio(rt[0], evs)
	out["engine.tracking_ns_per_event"] = ratio(rt[1], evs)
	out["engine.sync_ns_per_event"] = ratio(rt[2], evs)
	out["scheduler.steals_per_epoch"] = ratio(steals, epochs)
	out["scheduler.steal_fail_ratio"] = ratio(fails, steals+fails)
	out["scheduler.parks_per_epoch"] = ratio(parks, epochs)
	out["adaptive.morphs"] = morphs
	out["shard.direct_eps"] = reference(sut.Shape(), sut.Shards, fed, peakEpochs)
	serial := sut.Shape()
	serial.Workers = 1
	out["engine.serial_eps"] = reference(serial, 1, fed, peakEpochs)

	// Kill windows: one sample per kill.
	var heal, refeed, readMs, readBytes, resync []float64
	byHeal := map[int64]*[2]float64{}
	for _, k := range kills {
		byHeal[k.HealSpan] = &[2]float64{}
	}
	for _, sp := range spans {
		if acc := byHeal[sp.Parent]; acc != nil && sp.Layer == "device" && sp.Op == "read" {
			acc[0] += ms(sp.End - sp.Start)
			acc[1] += float64(sp.Bytes)
		}
	}
	for _, k := range kills {
		// The first Feed after a heal re-syncs every shard's whole
		// partition to the others before any ack can follow.
		resync = append(resync, ms(k.ResyncEnd-k.ResyncStart))
		heal = append(heal, ms(k.HealEnd-k.HealStart))
		refeed = append(refeed, float64(k.Refeed()))
		readMs = append(readMs, byHeal[k.HealSpan][0])
		readBytes = append(readBytes, byHeal[k.HealSpan][1])
	}
	out["ft.kills"] = float64(len(kills))
	out["ft.heal_ms"] = median(heal)
	out["ft.refeed_epochs"] = median(refeed)
	out["ft.resync_feed_ms"] = median(resync)
	out["storage.heal_read_ms"] = median(readMs)
	out["storage.heal_read_bytes"] = median(readBytes)

	if n := len(s.marks); n > 0 {
		end := s.marks[n-1].gostat
		out["go.heap_live_mb"] = end.heapLive / (1 << 20)
		out["go.gc_pause_p99_ms"] = histQuantile(end.pauses, 0.99) * 1e3
	}
	return out
}

// histQuantile reads quantile q off a runtime/metrics histogram, taking
// each bucket's upper bound (the lower one for the open last bucket).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= need {
			if hi := h.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[i]
		}
	}
	return 0
}

// reference feeds the captured epochs straight into a fresh in-process
// group of the given shape, through the last measured window, and
// returns its events per second of ProcessEpoch time over the epochs of
// the windows (from, to]: the group's throughput on the server's own
// epochs without the serving layer in front of it.
func reference(shape types.RunShape, shards int, fed [][]types.Event, windows [][2]uint64) float64 {
	if len(windows) == 0 {
		return 0
	}
	g, err := sut.NewGroup(shape, shards)
	if err != nil {
		return 0
	}
	defer func() {
		for i := 0; i < g.Shards(); i++ {
			g.Engine(i).Close()
		}
	}()
	last := windows[len(windows)-1][1]
	var busy time.Duration
	events := 0
	for ep := uint64(1); ep <= last && ep <= uint64(len(fed)); ep++ {
		t0 := time.Now()
		if err := g.ProcessEpoch(fed[ep-1]); err != nil {
			return 0
		}
		for _, w := range windows {
			if ep > w[0] && ep <= w[1] {
				busy += time.Since(t0)
				events += len(fed[ep-1])
			}
		}
	}
	return ratio(float64(events), busy.Seconds())
}
