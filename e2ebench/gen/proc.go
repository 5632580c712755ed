package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// proc is one server process. Its standard output is read line by line
// on a goroutine that ends when the process closes it.
type proc struct {
	cmd     *exec.Cmd
	stdin   io.WriteCloser
	lines   chan string
	started time.Time
	addr    string
	// capture is the server's audit capture file, removed once the
	// process has ended.
	capture string
}

// report mirrors the server's REPORT line.
type report struct {
	OK         bool               `json:"ok"`
	Error      string             `json:"error"`
	Epochs     uint64             `json:"epochs"`
	Events     int                `json:"events"`
	Watermarks map[string]uint64  `json:"watermarks"`
	Kills      []kill             `json:"kills"`
	Layers     map[string]float64 `json:"layers"`
	Provenance map[string]any     `json:"provenance"`
	AuditMs    float64            `json:"audit_ms"`
}

type kill struct {
	At          int64  `json:"at"`
	HealStart   int64  `json:"heal_start"`
	HealEnd     int64  `json:"heal_end"`
	ResyncStart int64  `json:"resync_start"`
	ResyncEnd   int64  `json:"resync_end"`
	AckTenant   string `json:"ack_tenant"`
	AckSeq      uint64 `json:"ack_seq"`
	AckSent     int64  `json:"ack_sent"`
	Epoch       uint64 `json:"epoch"`
	Recovered   uint64 `json:"recovered"`
}

// servers numbers the server processes, so each gets its own capture file.
var servers atomic.Int64

// startServer starts the server binary, its audit capture file in
// captureDir, and waits for its listen address.
func startServer(bin, captureDir string, args ...string) (*proc, error) {
	capture := filepath.Join(captureDir, fmt.Sprintf("server%d-%d.ingest", os.Getpid(), servers.Add(1)))
	cmd := exec.Command(bin, append([]string{"-capture", capture}, args...)...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, stdin: stdin, lines: make(chan string, 4), capture: capture}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<16), 1<<26)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
		close(p.lines)
	}()
	line, err := p.next(30 * time.Second)
	if err != nil || !strings.HasPrefix(line, "ADDR ") {
		p.abort()
		return nil, fmt.Errorf("server did not report its address: %q %v", line, err)
	}
	p.addr = strings.TrimPrefix(line, "ADDR ")
	return p, nil
}

func (p *proc) next(timeout time.Duration) (string, error) {
	select {
	case line, ok := <-p.lines:
		if !ok {
			return "", errors.New("server closed its output")
		}
		return line, nil
	case <-time.After(timeout):
		return "", errors.New("server did not answer in time")
	}
}

// command sends one command line and waits for "ok".
func (p *proc) command(format string, args ...any) error {
	_, err := p.ask(format, args...)
	return err
}

// ask sends one command line and returns what follows the "ok".
func (p *proc) ask(format string, args ...any) (string, error) {
	if _, err := fmt.Fprintf(p.stdin, format+"\n", args...); err != nil {
		return "", err
	}
	line, err := p.next(30 * time.Second)
	if err != nil {
		return "", err
	}
	rest, ok := strings.CutPrefix(line, "ok")
	if !ok {
		return "", fmt.Errorf("server answered %q", line)
	}
	return strings.TrimSpace(rest), nil
}

// stop asks for the audit and report, then waits for the process.
func (p *proc) stop(timeout time.Duration) (*report, error) {
	if _, err := fmt.Fprintln(p.stdin, "stop"); err != nil {
		p.abort()
		return nil, err
	}
	var rep *report
	deadline := time.Now().Add(timeout)
	for rep == nil {
		line, err := p.next(time.Until(deadline))
		if err != nil {
			p.abort()
			return nil, fmt.Errorf("waiting for the server's report: %w", err)
		}
		if strings.HasPrefix(line, "REPORT ") {
			rep = &report{}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "REPORT ")), rep); err != nil {
				p.abort()
				return nil, err
			}
		}
	}
	p.stdin.Close()
	err := p.cmd.Wait()
	os.Remove(p.capture)
	if err != nil && rep.OK {
		return rep, fmt.Errorf("server exited: %w", err)
	}
	return rep, nil
}

// abort ends the process without an audit and waits for it.
func (p *proc) abort() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
	os.Remove(p.capture)
}

// cpu returns the server's user+system CPU time, as it reports it.
func (p *proc) cpu() (time.Duration, error) {
	rest, err := p.ask("cpu")
	if err != nil {
		return 0, err
	}
	ns, err := strconv.ParseInt(rest, 10, 64)
	return time.Duration(ns), err
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func (p *proc) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
