package main

import (
	"sort"

	"morphstreamr/internal/obs"
)

// metric is one reported number.
type metric struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, in print order.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"peak_eps", "1/s"},
	{"ack_p50_ms", "ms"},
	{"goodput_eps", "1/s"},
	{"mttr_ms", "ms"},
	{"cpu_ns_per_event", "ns"},
	{"server_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports, grouped by the phase
// they are taken over (see README.md for the end-to-end metric each one
// should move).
var perLayer = []metric{
	// Open-loop phase.
	{"serve.heartbeat_share", "ratio"},
	{"serve.feed_gap_ms", "ms"},
	{"serve.stage.queue_ms", "ms"},
	{"serve.stage.execute_ms", "ms"},
	{"serve.stage.commit_ms", "ms"},
	{"serve.journeys", "count"},
	{"shard.commit_lag_epochs", "epochs"},
	{"reconcile.pump_cover", "ratio"},
	{"trace.overhead_ack_p50_share", "ratio"},
	{"trace.overhead_cpu_share", "ratio"},
	{"client.ack_p99_ms", "ms"},
	{"client.gen_late_p99_ms", "ms"},
	// Closed-loop peak phase.
	{"serve.events_per_epoch", "events"},
	{"serve.manifest_append_us", "us"},
	{"storage.ingest.bytes_per_event", "B"},
	{"go.gc_cpu_share", "ratio"},
	{"shard.feed_ms.p50", "ms"},
	{"shard.feed_ms.p99", "ms"},
	{"shard.busy_share", "ratio"},
	{"shard.barrier_ms", "ms"},
	{"shard.wall_skew", "ratio"},
	{"shard.route_skew", "ratio"},
	{"engine.io_ns_per_event", "ns"},
	{"engine.tracking_ns_per_event", "ns"},
	{"engine.sync_ns_per_event", "ns"},
	{"scheduler.steals_per_epoch", "count"},
	{"scheduler.steal_fail_ratio", "ratio"},
	{"scheduler.parks_per_epoch", "count"},
	{"adaptive.morphs", "count"},
	{"storage.input.append_us", "us"},
	{"storage.ft.append_us", "us"},
	{"storage.ckpt.append_us", "us"},
	{"storage.frontier.append_us", "us"},
	{"storage.input.bytes_per_event", "B"},
	{"storage.ft.bytes_per_event", "B"},
	{"storage.ckpt.bytes_per_event", "B"},
	{"storage.frontier.bytes_per_event", "B"},
	{"shard.direct_eps", "1/s"},
	{"engine.serial_eps", "1/s"},
	// Kill phase.
	{"ft.kills", "count"},
	{"ft.heal_ms", "ms"},
	{"ft.refeed_epochs", "epochs"},
	{"ft.resync_feed_ms", "ms"},
	{"storage.heal_read_ms", "ms"},
	{"storage.heal_read_bytes", "B"},
	{"ft.heal_share_of_mttr", "ratio"},
	{"ft.ack_after_resync_share", "ratio"},
	{"ft.first_ack_flight_ms", "ms"},
	{"reconcile.first_ack_unmatched", "count"},
	// Whole run.
	{"go.heap_live_mb", "MB"},
	{"go.gc_pause_p99_ms", "ms"},
	{"client.failed_share", "ratio"},
}

// pct returns the q-quantile of v (interpolated), 0 for no samples.
func pct(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return obs.Percentile(s, q)
}
