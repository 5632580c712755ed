// Command gen is the end-to-end benchmark's load generator. It starts the
// system under test (the benchmark's server binary) as a separate process,
// drives it over TCP with one connection per tenant, and reports:
//
//	--trace 0  the end-to-end metrics, measured with the tracing wrappers off
//	--trace 1  the per-layer metrics of a traced run, with the tracing
//	           overhead against an untraced reference and the
//	           reconciliation checks
//
// Every run audits the server's durable state and outputs and the
// client's ack stream; any mismatch exits non-zero. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md for the workloads, the phases and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"morphstreamr/e2ebench/sut"
)

// rounds is how many times a run cycles through its phases.
const rounds = 12

func main() {
	name := flag.String("workload", "", "workload name: ingest-uniform, ingest-hot or recover-kill")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	bin := flag.String("server", ".bench_build/bin/server", "server binary")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where traced runs write their spans")
	captureDir := flag.String("capture-dir", ".bench_build/capture", "where the servers write their audit captures")
	flag.Parse()
	if runtime.NumCPU() < 2 {
		runtime.GOMAXPROCS(1)
	} else {
		runtime.GOMAXPROCS(2)
	}
	sp, err := specByName(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil {
		err = os.MkdirAll(*captureDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(2)
	}
	b := bench{spec: sp, seed: *seed, seconds: *seconds, bin: *bin, captureDir: *captureDir}
	var res *result
	if *trace == 1 {
		if err = os.MkdirAll(*traceDir, 0o755); err == nil {
			res, err = b.traced(filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.spans.jsonl", sp.name, *seed)))
		}
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gen:", err)
		os.Exit(1)
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d go=%s gen_gomaxprocs=%d num_cpu=%d server=%v\n",
		sp.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), res.provenance)
	for _, line := range res.lines {
		fmt.Println(line)
	}
	if res.problem != "" {
		fmt.Println("# INCORRECT:", res.problem)
		// Also on standard error, where a caller that keeps only the
		// error stream of a failed run looks for the reason.
		fmt.Fprintln(os.Stderr, "gen: INCORRECT:", res.problem)
	}
	out := map[string]any{
		"correct": res.problem == "", "attempted": res.attempted, "failed": res.failed, "metrics": res.metrics,
	}
	enc, _ := json.Marshal(out)
	fmt.Println(string(enc))
	if res.problem != "" {
		os.Exit(1)
	}
}

type bench struct {
	spec       spec
	seed       int64
	seconds    int
	bin        string
	captureDir string
}

// result is one run's output.
type result struct {
	metrics    map[string]map[string]any
	lines      []string
	attempted  int
	failed     int
	problem    string // non-empty: the run is incorrect
	provenance map[string]any
}

func (r *result) put(m metric, v float64, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	r.lines = append(r.lines, fmt.Sprintf("%-34s %14.4f %-6s n=%d", m.name, v, m.unit, samples))
}

func (r *result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if r.problem == "" {
		r.problem = msg
	} else {
		r.problem += "; " + msg
	}
}

// plan is which phases a session runs, and for how long.
type plan struct {
	open, kill time.Duration
	// peak is how many batches each connection closes per round.
	peak   int
	rounds int
	// probes starts one more server per round only to time its set-up.
	probes bool
}

func (b bench) plan() plan {
	s := float64(b.seconds) * float64(time.Second)
	return plan{
		open:   time.Duration(s * b.spec.openShare),
		peak:   b.spec.peakBatches * b.seconds / 30 / rounds,
		kill:   time.Duration(s * b.spec.killShare),
		rounds: rounds,
	}
}

// probe times one server that is started only to answer one Hello.
func (b bench) probe() (float64, error) {
	p, err := startServer(b.bin, b.captureDir)
	if err != nil {
		return 0, err
	}
	defer p.abort()
	conn, _, _, err := hello(p.addr, sut.Tenants[0])
	took := time.Since(p.started).Seconds()
	if err != nil {
		return 0, err
	}
	conn.Close()
	return took, nil
}

func (b bench) untraced() (*result, error) {
	res := &result{metrics: map[string]map[string]any{}}
	p := b.plan()
	p.probes = true
	s, err := b.session(b.pools(), p)
	if err != nil {
		return nil, err
	}
	setups := append(s.probes, s.setup)
	res.provenance = s.rep.Provenance
	res.attempted, res.failed = s.attempted, s.failed
	s.check(res)
	e := s.endToEnd(b.spec)
	res.put(endToEnd[0], pct(setups, 0.5), len(setups))
	for _, m := range endToEnd[1:] {
		res.put(m, e[m.name].v, e[m.name].n)
	}
	res.lines = append(res.lines, fmt.Sprintf("# host_steal_share %.4f  server_audit_ms %.0f", s.steal, s.rep.AuditMs))
	res.lines = append(res.lines, "#   probes setup_s: "+fmtList(setups))
	for _, m := range endToEnd[1:] {
		if v := s.rounds[m.name]; v != nil {
			res.lines = append(res.lines, fmt.Sprintf("#   rounds %s: %s", m.name, fmtList(v)))
		}
	}
	for _, ph := range []struct {
		name string
		ws   []window
	}{{"open", s.opens}, {"peak", s.peaks}, {"kill", s.kills}} {
		res.lines = append(res.lines,
			fmt.Sprintf("#   rounds %s stolen share of all: %s", ph.name, fmtList(stolen(ph.ws, false))),
			fmt.Sprintf("#   rounds %s stolen share of busy: %s", ph.name, fmtList(stolen(ph.ws, true))))
	}
	for _, k := range []string{"raw.peak_eps", "raw.mttr_ms", "client.ack_p99_ms", "client.gen_late_p99_ms"} {
		res.lines = append(res.lines, fmt.Sprintf("# %-33s %14.4f n=%d", k, e[k].v, e[k].n))
	}
	var mttrs []float64
	for _, k := range s.mttrs {
		mttrs = append(mttrs, k.adjusted)
	}
	res.lines = append(res.lines, fmt.Sprintf("#   kills mttr_ms: p10 %.4g p25 %.4g p50 %.4g p90 %.4g",
		pct(mttrs, 0.1), pct(mttrs, 0.25), pct(mttrs, 0.5), pct(mttrs, 0.9)))
	return res, nil
}

func (b bench) traced(spansPath string) (*result, error) {
	res := &result{metrics: map[string]map[string]any{}}
	pools := b.pools()
	p := b.plan()
	ref, err := b.session(pools, plan{open: p.open, rounds: p.rounds})
	if err != nil {
		return nil, err
	}
	s, err := b.session(pools, p, "-trace", "-spans", spansPath)
	if err != nil {
		return nil, err
	}
	res.provenance = s.rep.Provenance
	res.attempted, res.failed = ref.attempted+s.attempted, ref.failed+s.failed
	ref.check(res)
	s.check(res)
	e, re := s.endToEnd(b.spec), ref.endToEnd(b.spec)
	layers := s.rep.Layers
	if layers == nil {
		layers = map[string]float64{}
	}
	layers["trace.overhead_ack_p50_share"] = e["ack_p50_ms"].v/re["ack_p50_ms"].v - 1
	layers["trace.overhead_cpu_share"] = e["cpu_ns_per_event"].v/re["cpu_ns_per_event"].v - 1
	layers["client.failed_share"] = float64(s.failed) / float64(max(s.attempted, 1))
	// The client's tail figures come from the untraced reference.
	layers["client.ack_p99_ms"] = re["client.ack_p99_ms"].v
	layers["client.gen_late_p99_ms"] = re["client.gen_late_p99_ms"].v
	// The server stamps the first ack it flushes after each heal; the
	// client stamps when that same ack (tenant and batch) arrived. The
	// server's account of a kill (detection, heal, the wait for that
	// flush, re-sync Feed included when the flush came after it) ends at
	// the flush, so the client must receive the ack no earlier.
	var shares, flights []float64
	bad, after := 0, 0
	for _, k := range s.mttrs {
		shares = append(shares, k.heal/k.mttr)
		if !k.matched || k.flight < 0 {
			bad++
			continue
		}
		flights = append(flights, k.flight)
		if k.afterResync {
			after++
		}
	}
	layers["ft.heal_share_of_mttr"] = pct(shares, 0.5)
	layers["ft.ack_after_resync_share"] = float64(after) / math.Max(float64(len(flights)), 1)
	layers["ft.first_ack_flight_ms"] = pct(flights, 0.5)
	layers["reconcile.first_ack_unmatched"] = float64(bad)
	if bad > 0 {
		res.fail("reconciliation: in %d of %d kills no client received the server's first post-heal ack after the server flushed it", bad, len(s.mttrs))
	}
	// Feeds and the gaps between them telescope to the span from the
	// first Feed's start to the last Feed's end, so this only checks the
	// windows' tails: the drain's idle ticks and the command round trips.
	const coverEps = 0.02
	if c := layers["reconcile.pump_cover"]; math.Abs(1-c) > coverEps {
		res.fail("reconciliation: Feeds and feed gaps cover %.4f of the pump's wall (want within %.2f of 1)", c, coverEps)
	}
	for _, m := range perLayer {
		v, ok := layers[m.name]
		if !ok {
			res.fail("per-layer metric %s missing", m.name)
		}
		res.put(m, v, s.layerSamples(m.name))
	}
	for _, m := range endToEnd[1:] {
		res.lines = append(res.lines, fmt.Sprintf("# traced %-26s %12.4f %s (untraced %.4f)", m.name, e[m.name].v, m.unit, re[m.name].v))
	}
	return res, nil
}

// pools generates both connections' inputs before any clock starts.
func (b bench) pools() [][][]byte {
	out := make([][][]byte, len(sut.Tenants))
	for i := range out {
		out[i] = b.spec.pool(b.seed, i)
	}
	return out
}

// session is one measured server process and its phases.
type session struct {
	setup               float64
	opens, peaks, kills []window
	recs                [][]batchRec
	acked               []uint64
	attempted           int
	failed              int
	violations          int
	rss                 float64
	rep                 *report
	mttrs               []mttr
	probes              []float64 // set-up times of the probe servers
	steal               float64   // share of this VM's CPU time the host stole
	// rounds holds each round's value of the per-round metrics.
	rounds map[string][]float64
}

// window is one phase of one round: its wall-clock bounds, each lane's
// sequences, and the server CPU it took.
type window struct {
	start, end  int64
	first, last []uint64
	cpu         time.Duration
	// cpuTicks is the VM's CPU time over the window, from /proc/stat.
	cpuTicks ticks
}

// mttr is one kill's client-observed MTTR, adjusted is the MTTR with
// its window's stolen share taken out, and the rest is the server's
// account of the kill: the heal, and the first ack the server flushed
// after the heal.
// flight runs from that flush to the client's receipt of the same ack;
// afterResync says whether the flush waited for the first Feed after
// the heal.
type mttr struct {
	heal, mttr, adjusted float64
	flight               float64
	matched, afterResync bool
}

func (b bench) session(pools [][][]byte, p plan, args ...string) (*session, error) {
	sp := b.spec
	srv, err := startServer(b.bin, b.captureDir, args...)
	if err != nil {
		return nil, err
	}
	s := &session{}
	t0 := readTicks()
	var lanes []*lane
	fail := func(err error) (*session, error) {
		for _, l := range lanes {
			l.close()
		}
		srv.abort()
		return nil, err
	}
	for i, name := range sut.Tenants {
		l, err := dialLane(srv.addr, name, pools[i])
		if err != nil {
			return fail(err)
		}
		if i == 0 {
			s.setup = time.Since(srv.started).Seconds()
		}
		lanes = append(lanes, l)
	}
	all := func(f func(i int, l *lane)) {
		var wg sync.WaitGroup
		for i, l := range lanes {
			wg.Add(1)
			go func(i int, l *lane) {
				defer wg.Done()
				f(i, l)
			}(i, l)
		}
		wg.Wait()
	}
	drain := func() error {
		var errs []error
		var mu sync.Mutex
		all(func(_ int, l *lane) {
			if err := l.drain(30 * time.Second); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		})
		return errors.Join(errs...)
	}
	// phase runs one window: mark it, drive it, drain it, and take the
	// server CPU it used.
	phase := func(name string, d time.Duration, drive func(w *window, start time.Time)) (window, error) {
		var w window
		if err := srv.command("phase %s", name); err != nil {
			return w, err
		}
		cpu0, err := srv.cpu()
		if err != nil {
			return w, err
		}
		t0 := readTicks()
		start := time.Now().Add(5 * time.Millisecond)
		w.start, w.end = start.UnixNano(), start.Add(d).UnixNano()
		w.first, w.last = make([]uint64, len(lanes)), make([]uint64, len(lanes))
		drive(&w, start)
		if err := drain(); err != nil {
			return w, err
		}
		for i, l := range lanes {
			w.last[i] = l.sent()
		}
		w.cpuTicks = readTicks().since(t0)
		cpu1, err := srv.cpu()
		w.cpu = cpu1 - cpu0
		return w, err
	}
	openLoop := func(d time.Duration, rate float64) func(*window, time.Time) {
		every := time.Duration(float64(sp.batch) * float64(len(lanes)) / rate * float64(time.Second))
		return func(w *window, start time.Time) {
			all(func(i int, l *lane) { w.first[i] = l.openLoop(start, every, int(d/every)) })
		}
	}
	closedLoop := func(w *window, start time.Time) {
		all(func(i int, l *lane) { w.first[i] = l.closedLoop(p.peak, sp.window) })
	}

	// Warm-up: one second of the open loop, not measured.
	if _, err := phase("warm", time.Second, openLoop(time.Second, sp.rate)); err != nil {
		return fail(err)
	}
	// Rounds interleave the phases, so each phase samples the whole run
	// rather than one stretch of it.
	for r := 0; r < p.rounds; r++ {
		if p.probes {
			t, err := b.probe()
			if err != nil {
				return fail(err)
			}
			s.probes = append(s.probes, t)
		}
		if p.open > 0 {
			d := p.open / time.Duration(p.rounds)
			w, err := phase("open", d, openLoop(d, sp.rate))
			if err != nil {
				return fail(err)
			}
			s.opens = append(s.opens, w)
		}
		if p.peak > 0 {
			w, err := phase("peak", 0, closedLoop)
			if err != nil {
				return fail(err)
			}
			s.peaks = append(s.peaks, w)
		}
		if p.kill > 0 {
			if err := srv.command("kill on"); err != nil {
				return fail(err)
			}
			d := p.kill / time.Duration(p.rounds)
			w, err := phase("kill", d, func(w *window, start time.Time) {
				openLoop(d, sp.killRate)(w, start)
				if err := srv.command("kill off"); err != nil {
					fmt.Fprintln(os.Stderr, "gen: disarm kills:", err)
				}
			})
			if err != nil {
				return fail(err)
			}
			s.kills = append(s.kills, w)
		}
	}
	if err := srv.command("phase end"); err != nil {
		return fail(err)
	}
	s.steal = readTicks().since(t0).stolenOfAll()
	if s.rss, err = srv.peakRSS(); err != nil {
		return fail(err)
	}
	for _, l := range lanes {
		l.close()
		recs, attempted, failed, violations, err := l.snapshot()
		if err != nil {
			failed += len(recs) - int(l.acked)
		}
		s.recs = append(s.recs, recs)
		s.acked = append(s.acked, l.acked)
		s.attempted += attempted
		s.failed += failed
		s.violations += violations
	}
	lanes = nil
	if s.rep, err = srv.stop(150 * time.Second); err != nil {
		return nil, err
	}
	return s, nil
}

// check applies the client-side correctness checks and folds in the
// server's audit.
func (s *session) check(res *result) {
	if !s.rep.OK {
		res.fail("server audit: %s", s.rep.Error)
	}
	if s.violations > 0 {
		res.fail("%d acks out of order, duplicated or for unsent batches", s.violations)
	}
	for i, name := range sut.Tenants {
		if sent := uint64(len(s.recs[i])); s.acked[i] != sent {
			res.fail("tenant %s: %d of %d batches acked", name, s.acked[i], sent)
		}
		if wm := s.rep.Watermarks[name]; wm != s.acked[i] {
			res.fail("tenant %s: client acked through %d, server watermark %d", name, s.acked[i], wm)
		}
	}
}

type value struct {
	v float64
	n int
}

// endToEnd computes the session's end-to-end metrics (all but setup_s)
// and, under "client.", the client-side figures the traced run reports
// as layer metrics; under "raw.", peak_eps and mttr_ms before the
// adjustment for stolen time.
//
// The host steals CPU time from this VM in bursts, and stolen time only
// ever slows a round down. peak_eps and mttr_ms time CPU-bound work,
// which stolen time stretches by up to 1/(1-f), f being the stolen
// share of the window. So each round's throughput is multiplied, and
// each kill's MTTR divided, by that stretch: about the figure the round
// would read on a host that stole nothing. A kill's MTTR is one
// CPU-bound path (the heal and the re-sync Feed) in a window where the
// VM is otherwise lightly loaded, so f is the share of the VM's busy
// time that was stolen. The closed loop keeps the VM only partly busy,
// because every batch also waits for the epoch and commit timers, which
// stolen time does not stretch; there the share of busy time
// overcorrected, and f is the share of all CPU time, idle included,
// which errs low instead. peak_eps is the median round; mttr_ms is the
// lower quartile over every kill of the run, because per-kill MTTR has a
// long tail (kills whose re-sync Feed meets a GC cycle or a backlog).
// Open-loop latency is mostly waiting for those timers, so ack_p50_ms
// reports the least affected round, the lowest, instead. CPU time
// excludes stolen time; cpu_ns_per_event and goodput_eps report the
// median round.
func (s *session) endToEnd(sp spec) map[string]value {
	out := map[string]value{}
	var p50, cpu, good, lat, late []float64
	n := 0
	for _, w := range s.opens {
		var wl []float64
		var acked float64
		var lastAck int64
		s.each(w, func(r batchRec) {
			wl = append(wl, float64(r.ack-r.due)/1e6)
			late = append(late, float64(r.sent-r.due)/1e6)
			if r.ack <= w.end {
				acked += float64(sp.batch)
				lastAck = max(lastAck, r.ack)
			}
		})
		n += len(wl)
		lat = append(lat, wl...)
		p50 = append(p50, pct(wl, 0.5))
		cpu = append(cpu, float64(w.cpu)/math.Max(float64(len(wl)*sp.batch), 1))
		good = append(good, acked/(float64(lastAck-w.start)/1e9))
	}
	out["ack_p50_ms"] = value{pct(p50, 0), n}
	out["cpu_ns_per_event"] = value{pct(cpu, 0.5), n * sp.batch}
	out["goodput_eps"] = value{pct(good, 0.5), n}
	out["server_rss_mb"] = value{s.rss / (1 << 20), 1}
	out["client.ack_p99_ms"] = value{pct(lat, 0.99), len(lat)}
	out["client.gen_late_p99_ms"] = value{pct(late, 0.99), len(late)}

	// Peak: a fixed number of batches from the first send to the last ack.
	var eps, rawEps []float64
	n = 0
	for _, w := range s.peaks {
		var events float64
		start, end := int64(math.MaxInt64), int64(0)
		s.each(w, func(r batchRec) {
			events += float64(sp.batch)
			start, end = min(start, r.sent), max(end, r.ack)
			n++
		})
		rawEps = append(rawEps, events/(float64(end-start)/1e9))
		eps = append(eps, rawEps[len(rawEps)-1]/(1-w.cpuTicks.stolenOfAll()))
	}
	out["peak_eps"] = value{pct(eps, 0.5), n}
	out["raw.peak_eps"] = value{pct(rawEps, 0.5), n}

	// MTTR: kill to the first ack any client observes after the heal.
	s.mttrs = s.mttrs[:0]
	var medians []float64
	for _, w := range s.kills {
		var acks []int64
		s.each(w, func(r batchRec) { acks = append(acks, r.ack) })
		sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
		var round []float64
		for _, k := range s.rep.Kills {
			if k.At < w.start || k.At >= w.end {
				continue
			}
			i := sort.Search(len(acks), func(i int) bool { return acks[i] >= k.HealEnd })
			if i == len(acks) {
				continue
			}
			m := mttr{heal: float64(k.HealEnd-k.HealStart) / 1e6, mttr: float64(acks[i]-k.At) / 1e6}
			m.adjusted = m.mttr * (1 - w.cpuTicks.stolenOfBusy())
			round = append(round, m.adjusted)
			// The client's receipt of the first ack the server flushed
			// after the heal.
			if t := slices.Index(sut.Tenants, k.AckTenant); t >= 0 && k.AckSeq >= 1 && k.AckSeq <= uint64(len(s.recs[t])) {
				if got := s.recs[t][k.AckSeq-1].ack; got != 0 {
					m.matched = true
					m.flight = float64(got-k.AckSent) / 1e6
					m.afterResync = k.ResyncEnd != 0 && k.AckSent >= k.ResyncEnd
				}
			}
			s.mttrs = append(s.mttrs, m)
		}
		if len(round) > 0 {
			medians = append(medians, pct(round, 0.5))
		}
	}
	all := make([]float64, len(s.mttrs))
	raw := make([]float64, len(s.mttrs))
	for i, k := range s.mttrs {
		all[i], raw[i] = k.adjusted, k.mttr
	}
	out["mttr_ms"] = value{pct(all, 0.25), len(all)}
	out["raw.mttr_ms"] = value{pct(raw, 0.25), len(raw)}
	s.rounds = map[string][]float64{"ack_p50_ms": p50, "peak_eps": eps, "mttr_ms": medians, "cpu_ns_per_event": cpu}
	return out
}

// stolen lists each window's stolen share, of all CPU time or of busy
// time.
func stolen(ws []window, ofBusy bool) []float64 {
	out := make([]float64, len(ws))
	for i, w := range ws {
		if ofBusy {
			out[i] = w.cpuTicks.stolenOfBusy()
		} else {
			out[i] = w.cpuTicks.stolenOfAll()
		}
	}
	return out
}

// each visits every batch record inside the window.
func (s *session) each(w window, f func(batchRec)) {
	for i := range w.first {
		for seq := w.first[i]; seq <= w.last[i] && seq <= uint64(len(s.recs[i])); seq++ {
			f(s.recs[i][seq-1])
		}
	}
}

// layerSamples is the sample count behind a per-layer metric, where it
// is a count of kills; other layer metrics print 0.
func (s *session) layerSamples(name string) int {
	if strings.HasPrefix(name, "ft.") || strings.HasPrefix(name, "storage.heal") || name == "reconcile.first_ack_unmatched" {
		return len(s.rep.Kills)
	}
	return 0
}

// ticks is the VM's CPU time from /proc/stat, in clock ticks summed
// over its CPUs: stolen, idle (idle and iowait) and total (stolen and
// idle included). Zeros where it cannot be read.
type ticks struct{ steal, idle, total int64 }

func readTicks() ticks {
	var t ticks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		t.total += v
		switch i {
		case 4, 5:
			t.idle += v
		case 8:
			t.steal = v
		}
	}
	return t
}

func (t ticks) since(t0 ticks) ticks {
	return ticks{t.steal - t0.steal, t.idle - t0.idle, t.total - t0.total}
}

// stolenOfAll is the share of the VM's CPU time the host stole, idle
// time included in the base.
func (t ticks) stolenOfAll() float64 {
	if t.total <= 0 {
		return 0
	}
	return float64(t.steal) / float64(t.total)
}

// stolenOfBusy is the share of the time the VM wanted to run that the
// host ran something else instead. Both shares stay below 1 over any
// window in which the VM did work, because that work is CPU time that
// was not stolen.
func (t ticks) stolenOfBusy() float64 {
	if busy := t.total - t.idle; busy > 0 {
		return float64(t.steal) / float64(busy)
	}
	return 0
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
