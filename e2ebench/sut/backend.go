package sut

import (
	"sync/atomic"
	"time"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
)

// Kill is one whole-group kill and the heal that answered it, in
// wall-clock nanoseconds.
type Kill struct {
	At          int64 `json:"at"`           // the Feed that consumed the armed kill began
	HealStart   int64 `json:"heal_start"`   // serve called Heal
	HealEnd     int64 `json:"heal_end"`     // Heal returned
	ResyncStart int64 `json:"resync_start"` // the first Feed after the heal began
	ResyncEnd   int64 `json:"resync_end"`   // and returned
	// AckTenant and AckSeq name the first batch the server acked after
	// the heal, and AckSent is when it flushed that ack.
	AckTenant string `json:"ack_tenant"`
	AckSeq    uint64 `json:"ack_seq"`
	AckSent   int64  `json:"ack_sent"`
	Epoch     uint64 `json:"epoch"`     // the epoch the killed Feed carried
	Recovered uint64 `json:"recovered"` // the epoch the group resumed from
	HealSpan  int64  `json:"heal_span,omitempty"`
}

// Refeed is how many fed epochs the heal lost and the pump must re-feed.
func (k Kill) Refeed() uint64 { return k.Epoch - k.Recovered }

// Backend wraps the server's GroupBackend. It always carries the kill
// schedule (KillEvery, KillPhase) and defers Close so the group can be
// audited after the server stops; with a Recorder it also records a span
// around every Feed, Heal and Committed call. It forwards the optional
// capabilities the server probes for (ShardOf, CommittedAt).
type Backend struct {
	inner *serve.GroupBackend
	rec   *Recorder

	kill atomic.Bool

	// calls carries functions to run on the pump goroutine (OnPump).
	calls chan func()

	// Pump goroutine only until the server stopped.
	armed     bool
	sinceKill int
	kills     []Kill
	pending   *Kill
	// The last kill's re-sync Feed and first ack are still to come.
	resyncDue, ackDue bool
}

// NewBackend wraps be; rec may be nil (untraced).
func NewBackend(be *serve.GroupBackend, rec *Recorder) *Backend {
	return &Backend{inner: be, rec: rec, calls: make(chan func())}
}

// OnPump runs fn on the server's pump goroutine, between two ticks'
// backend calls, and returns once it ran: fn may read the group without
// racing the pump. The server must be running.
func (b *Backend) OnPump(fn func(*serve.GroupBackend)) {
	done := make(chan struct{})
	b.calls <- func() {
		fn(b.inner)
		close(done)
	}
	<-done
}

// SetKill turns the kill schedule on or off; turning it on starts the
// count of fed epochs afresh. Safe from any goroutine.
func (b *Backend) SetKill(on bool) { b.kill.Store(on) }

// Feed implements serve.Backend.
func (b *Backend) Feed(events []types.Event) error {
	ep := b.inner.Epoch() + 1
	if on := b.kill.Load(); on != b.armed {
		b.armed, b.sinceKill = on, 0
	}
	if b.armed {
		b.sinceKill++
		if b.sinceKill >= KillEvery && ep%SnapshotEvery == KillPhase {
			b.sinceKill = 0
			b.inner.KillGroup()
			b.pending = &Kill{At: now(), Epoch: ep}
		}
	}
	var id int64
	if b.rec != nil {
		id = b.rec.id()
		b.rec.cur.Store(id)
	}
	t0 := now()
	err := b.inner.Feed(events)
	t1 := now()
	if b.rec != nil {
		b.rec.cur.Store(0)
		b.rec.add(Span{ID: id, Layer: "backend", Op: "feed", Dev: NoDev, Start: t0, End: t1, Events: len(events), Epoch: ep})
	}
	if b.resyncDue {
		k := &b.kills[len(b.kills)-1]
		k.ResyncStart, k.ResyncEnd = t0, t1
		b.resyncDue = false
	}
	return err
}

// AckLog has the signature of serve.Config.AckLog, which the server
// calls on its pump goroutine for every batch it acks: it stamps the
// first ack after each kill's heal.
func (b *Backend) AckLog(tenant string, batchSeq, _, _, _ uint64) {
	if b.ackDue {
		k := &b.kills[len(b.kills)-1]
		k.AckTenant, k.AckSeq, k.AckSent = tenant, batchSeq, now()
		b.ackDue = false
	}
}

// Heal implements serve.Backend, stamping the kill it answers.
func (b *Backend) Heal(procErr error, src shard.Source) (uint64, error) {
	var id int64
	if b.rec != nil {
		id = b.rec.id()
		b.rec.cur.Store(id)
	}
	t0 := now()
	recovered, err := b.inner.Heal(procErr, src)
	t1 := now()
	if b.rec != nil {
		b.rec.cur.Store(0)
		b.rec.add(Span{ID: id, Layer: "backend", Op: "heal", Dev: NoDev, Start: t0, End: t1, Epoch: recovered})
	}
	if k := b.pending; k != nil {
		k.HealStart, k.HealEnd, k.Recovered, k.HealSpan = t0, t1, recovered, id
		b.kills = append(b.kills, *k)
		b.pending, b.resyncDue, b.ackDue = nil, true, true
	}
	return recovered, err
}

// Committed implements serve.Backend. The pump calls it on every tick,
// idle or not, so it is also where OnPump's functions run.
func (b *Backend) Committed() uint64 {
	select {
	case fn := <-b.calls:
		fn()
	default:
	}
	if b.rec == nil {
		return b.inner.Committed()
	}
	id, t0 := b.rec.id(), now()
	c := b.inner.Committed()
	b.rec.add(Span{ID: id, Layer: "backend", Op: "committed", Dev: NoDev, Start: t0, End: now(), Epoch: c})
	return c
}

// Epoch implements serve.Backend.
func (b *Backend) Epoch() uint64 { return b.inner.Epoch() }

// Coord implements serve.Backend.
func (b *Backend) Coord() storage.Device { return b.inner.Coord() }

// ShardOf forwards the server's shard-router capability.
func (b *Backend) ShardOf(ev types.Event) int { return b.inner.ShardOf(ev) }

// CommittedAt forwards the server's commit-timer capability.
func (b *Backend) CommittedAt(ep uint64) (time.Time, bool) { return b.inner.CommittedAt(ep) }

// Close implements serve.Backend by deferring the real close: the group
// stays readable for the audit until Release.
func (b *Backend) Close() {}

// Release closes the wrapped backend once the audit is done.
func (b *Backend) Release() { b.inner.Close() }

// Inner returns the wrapped backend (for audits after the server stopped).
func (b *Backend) Inner() *serve.GroupBackend { return b.inner }

// Kills returns every healed kill. Call after the server stopped.
func (b *Backend) Kills() []Kill { return append([]Kill(nil), b.kills...) }
