// Package sut assembles the system under test for the end-to-end
// benchmark: the fixed server configuration, the Backend and Device
// wrappers that time every call crossing a layer boundary, and the replay
// checker that proves a run's durable state and outputs correct.
package sut

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call across a layer boundary. Times are wall-clock
// nanoseconds, so spans recorded in the server process line up with the
// load generator's send and ack stamps.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Layer  string `json:"layer"` // "backend" or "device"
	Op     string `json:"op"`    // feed, heal, committed; append, read, blob, ...
	Name   string `json:"name,omitempty"`
	// Dev is the device the call went to: a shard index, or CoordDev.
	Dev    int    `json:"dev"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Bytes  int64  `json:"bytes,omitempty"`
	Events int    `json:"events,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
}

// CoordDev is Span.Dev for the coordinator device; NoDev marks a span
// that did not touch a device.
const (
	CoordDev = -1
	NoDev    = -2
)

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the untraced configuration: every method is a no-op.
type Recorder struct {
	next atomic.Int64
	// cur is the open backend span (Feed or Heal) on the pump goroutine;
	// device calls made while it is open record it as their parent.
	cur atomic.Int64

	mu    sync.Mutex
	spans []Span
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{spans: make([]Span, 0, 1<<16)} }

func (r *Recorder) id() int64 { return r.next.Add(1) }

func (r *Recorder) add(s Span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// Spans returns a copy of every recorded span, in completion order.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as JSON lines.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func now() int64 { return time.Now().UnixNano() }
