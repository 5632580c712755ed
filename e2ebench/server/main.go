// Command server is the system under test of the end-to-end benchmark:
// serve.New over serve.NewGroupBackend with the benchmark's one fixed
// configuration (MSR, 2 shards of GS rows on segment-store devices, two
// tenants, serve.Config defaults). The load generator starts it, reads
// "ADDR <host:port>" from its standard output and then drives it over
// TCP. Commands arrive on standard input, one per line:
//
//	phase <name>   mark a phase boundary (traced runs read the layers out)
//	cpu            answer "ok <ns>": the process's user+system CPU time
//	kill on|off    turn the kill schedule (sut.KillEvery, sut.KillPhase) on or off
//	stop           stop serving, audit the run, print "REPORT <json>", exit
//
// End of input without "stop" exits at once with no audit: that is how
// the generator discards the servers it only starts to time set-up.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"morphstreamr/e2ebench/sut"
	"morphstreamr/internal/journey"
	"morphstreamr/internal/obs"
	"morphstreamr/internal/serve"
)

func main() {
	trace := flag.Bool("trace", false, "record spans and read the layers out at every phase mark")
	spansPath := flag.String("spans", "", "traced runs: write the spans here as JSON lines")
	capture := flag.String("capture", "", "the file the audit's copy of the ingest manifest is written to")
	flag.Parse()
	if err := run(*trace, *spansPath, *capture); err != nil {
		fmt.Fprintln(os.Stderr, "server:", err)
		os.Exit(1)
	}
}

// server is one running system under test.
type server struct {
	srv     *serve.Server
	be      *sut.Backend
	capture *sut.Capture
	rec     *sut.Recorder
	obs     *obs.Observer
	jr      *journey.Recorder
	marks   []mark
}

func run(trace bool, spansPath, capture string) error {
	s := &server{}
	var err error
	if s.capture, err = sut.NewCapture(capture); err != nil {
		return err
	}
	if trace {
		s.rec = sut.NewRecorder()
		s.obs = obs.NewObserver(sut.Shards, 1024)
		s.jr = journey.NewRecorder(journey.Config{SampleEvery: 8, MaxDone: 1 << 16})
	}
	cfg := sut.GroupConfig(sut.Shape(), sut.Shards)
	devs, coord := sut.Devices(sut.Shards)
	if trace {
		for i, d := range devs {
			devs[i] = sut.NewDevice(d, i, s.rec, nil)
		}
	}
	cfg.Devices = devs
	cfg.CoordDev = sut.NewDevice(coord, sut.CoordDev, s.rec, s.capture)
	cfg.Obs = s.obs
	inner, err := serve.NewGroupBackend(cfg)
	if err != nil {
		return err
	}
	s.be = sut.NewBackend(inner, s.rec)
	var tenants []serve.TenantConfig
	for _, name := range sut.Tenants {
		tenants = append(tenants, serve.TenantConfig{Name: name, QueueCap: sut.QueueCap})
	}
	s.srv, err = serve.New(serve.Config{
		Backend: s.be,
		Tenants: tenants,
		// The kill schedule heals far more often than the default budget
		// of 16 allows; every other setting is the default.
		MaxHeals: 1 << 30,
		Obs:      s.obs,
		Journeys: s.jr,
		AckLog:   s.be.AckLog,
	})
	if err != nil {
		return err
	}
	out := bufio.NewWriter(os.Stdout)
	reply := func(format string, args ...any) {
		fmt.Fprintf(out, format+"\n", args...)
		out.Flush()
	}
	reply("ADDR %s", s.srv.Addr())

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		f := strings.Fields(in.Text())
		if len(f) == 0 {
			continue
		}
		switch {
		case f[0] == "phase" && len(f) == 2:
			if trace {
				s.mark(f[1])
			}
			reply("ok")
		case f[0] == "cpu":
			var ru syscall.Rusage
			if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
				return err
			}
			reply("ok %d", ru.Utime.Nano()+ru.Stime.Nano())
		case f[0] == "kill" && len(f) == 2 && (f[1] == "on" || f[1] == "off"):
			s.be.SetKill(f[1] == "on")
			reply("ok")
		case f[0] == "stop":
			rep := s.stop(spansPath)
			b, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			reply("REPORT %s", b)
			if !rep.OK {
				os.Exit(1)
			}
			return nil
		default:
			return fmt.Errorf("bad command %q", in.Text())
		}
	}
	// Input closed without "stop": a set-up probe. Exit without an audit.
	os.Exit(0)
	return nil
}

// Report is the server's account of a run.
type Report struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Epochs and Events are what the server fed (final incarnation's
	// epoch count, events across the audited epochs).
	Epochs uint64 `json:"epochs"`
	Events int    `json:"events"`
	// Watermarks are the tenants' acked batch high-watermarks, and Fed
	// the highest batch each tenant had fed according to the captured
	// manifest; after a drained run the two agree.
	Watermarks map[string]uint64  `json:"watermarks"`
	Fed        map[string]uint64  `json:"fed"`
	Kills      []sut.Kill         `json:"kills"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Provenance map[string]any     `json:"provenance"`
	AuditMs    float64            `json:"audit_ms"`
}

// stop shuts the server down, audits the run and, when traced, measures
// the direct-feed and single-thread references and reads out the layers.
func (s *server) stop(spansPath string) *Report {
	s.srv.Close()
	defer s.be.Release()
	rep := &Report{
		Watermarks: map[string]uint64{},
		Kills:      s.be.Kills(),
		Provenance: map[string]any{
			"go_version": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "num_cpu": runtime.NumCPU(),
		},
	}
	for _, name := range sut.Tenants {
		rep.Watermarks[name], _ = s.srv.Tenant(name)
	}
	if err := s.srv.Err(); err != nil {
		rep.Error = err.Error()
		return rep
	}
	t0 := time.Now()
	captured, err := s.capture.Device()
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	fed, err := audit(s.be.Inner(), captured, rep)
	rep.AuditMs = float64(time.Since(t0)) / float64(time.Millisecond)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	rep.OK = true
	if s.rec != nil {
		rep.Layers = s.layers(fed, rep.Kills)
		if spansPath != "" {
			if err := s.rec.WriteFile(spansPath); err != nil {
				fmt.Fprintln(os.Stderr, "server: write spans:", err)
			}
		}
	}
	return rep
}
