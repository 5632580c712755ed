package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"morphstreamr/internal/serve"
)

// batchRec is one batch's life on the client, in wall-clock nanoseconds.
type batchRec struct {
	due, sent, ack int64
	sends          int
}

// lane is one tenant's connection. The sender side (openLoop, closedLoop)
// runs on the caller's goroutine; a reader goroutine consumes acks and
// Slowdowns and redials after a reset or an eviction. Neither side quits
// on a failed attempt: each is counted and the batch is sent again.
type lane struct {
	tenant string
	addr   string
	pool   [][]byte

	mu         sync.Mutex
	conn       net.Conn
	recs       []batchRec // index seq-1; open loops schedule ahead
	sentHi     uint64     // highest sequence sent at least once
	acked      uint64     // contiguous acked prefix
	resendFrom uint64     // 0: nothing to resend
	rewound    uint64     // last resend point not yet acked past; 0: none
	pauseUntil int64
	attempted  int
	failed     int
	violations int
	stopping   bool
	readerDone chan struct{}
	wake       chan struct{} // signalled on every ack or reconnect

	frame []byte // sender-owned frame buffer
}

// dialLane connects a lane and returns when the HelloAck arrived.
func dialLane(addr, tenant string, pool [][]byte) (*lane, error) {
	l := &lane{tenant: tenant, addr: addr, pool: pool,
		readerDone: make(chan struct{}), wake: make(chan struct{}, 1)}
	conn, br, wm, err := hello(addr, tenant)
	if err != nil {
		return nil, err
	}
	if wm != 0 {
		conn.Close()
		return nil, fmt.Errorf("tenant %s: fresh server reports watermark %d", tenant, wm)
	}
	l.conn = conn
	go l.read(br)
	return l, nil
}

// hello dials and handshakes, returning the acked watermark.
func hello(addr, tenant string) (net.Conn, *bufio.Reader, uint64, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, nil, 0, err
	}
	if _, err := conn.Write(serve.EncodeHello(tenant)); err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	br := bufio.NewReaderSize(conn, 1<<16)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	payload, err := serve.ReadFrame(br, serve.DefaultMaxFrame)
	if err != nil {
		conn.Close()
		return nil, nil, 0, err
	}
	conn.SetReadDeadline(time.Time{})
	f, err := serve.DecodeFrame(payload)
	if err != nil || f.Type != serve.FrameHelloAck {
		conn.Close()
		return nil, nil, 0, fmt.Errorf("tenant %s: no HelloAck (%v)", tenant, err)
	}
	return conn, br, f.Watermark, nil
}

// appendSubmit appends the Submit frame for batch seq carrying the
// encoded events payload; it equals serve.EncodeSubmit byte for byte.
func appendSubmit(dst []byte, seq uint64, payload []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], seq)
	dst = binary.AppendUvarint(dst, uint64(1+n+len(payload)))
	dst = append(dst, byte(serve.FrameSubmit))
	dst = append(dst, hdr[:n]...)
	return append(dst, payload...)
}

func (l *lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// send writes batches [from, to] (1-based sequences) on the current
// connection. A write error leaves recovery to the reader.
func (l *lane) send(from, to uint64) {
	l.mu.Lock()
	conn := l.conn
	now := time.Now().UnixNano()
	l.frame = l.frame[:0]
	for seq := from; seq <= to; seq++ {
		r := &l.recs[seq-1]
		r.sends++
		if r.sent == 0 {
			r.sent = now
		}
		l.attempted++
		l.sentHi = max(l.sentHi, seq)
		l.frame = appendSubmit(l.frame, seq, l.pool[(seq-1)%uint64(len(l.pool))])
	}
	l.mu.Unlock()
	conn.Write(l.frame)
}

// pending returns the resend range the reader asked for, if any, once
// the advised pause is over.
func (l *lane) pending() (uint64, uint64, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.resendFrom == 0 {
		return 0, 0, 0
	}
	if wait := time.Duration(l.pauseUntil - time.Now().UnixNano()); wait > 0 {
		return 0, 0, wait
	}
	from, to := l.resendFrom, l.sentHi
	l.resendFrom = 0
	if from <= l.acked {
		from = l.acked + 1
	}
	return from, to, 0
}

// resend sends whatever the reader asked to resend, waiting out the
// advised pause.
func (l *lane) resend() {
	for {
		from, to, wait := l.pending()
		if wait > 0 {
			time.Sleep(wait)
			continue
		}
		if from != 0 && from <= to {
			l.send(from, to)
		}
		return
	}
}

// openLoop sends n batches on a fixed schedule from start, one every
// interval, regardless of acks. It returns the first sequence it sent.
func (l *lane) openLoop(start time.Time, interval time.Duration, n int) uint64 {
	l.mu.Lock()
	first := uint64(len(l.recs)) + 1
	for k := 0; k < n; k++ {
		l.recs = append(l.recs, batchRec{due: start.Add(time.Duration(k) * interval).UnixNano()})
	}
	l.mu.Unlock()
	next := first
	last := first + uint64(n) - 1
	for next <= last {
		l.resend()
		due := time.Unix(0, l.recs[next-1].due)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		// Send every batch that is due by now in one write.
		now := time.Now().UnixNano()
		to := next
		for to < last && l.recs[to].due <= now {
			to++
		}
		l.send(next, to)
		next = to + 1
	}
	return first
}

// closedLoop sends n batches keeping window of them in flight. It
// returns the first sequence it sent.
func (l *lane) closedLoop(n, window int) uint64 {
	l.mu.Lock()
	first := uint64(len(l.recs)) + 1
	l.mu.Unlock()
	last := first + uint64(n) - 1
	for {
		l.resend()
		l.mu.Lock()
		room := min(int(l.acked)+window, int(last)) - len(l.recs)
		now := time.Now().UnixNano()
		for i := 0; i < room; i++ {
			l.recs = append(l.recs, batchRec{due: now})
		}
		to := uint64(len(l.recs))
		l.mu.Unlock()
		if room > 0 {
			l.send(to-uint64(room)+1, to)
		}
		if to == last {
			return first
		}
		select {
		case <-l.wake:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// drain waits until every batch sent is acked, resending on request.
func (l *lane) drain(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		l.resend()
		l.mu.Lock()
		done := l.acked == uint64(len(l.recs))
		l.mu.Unlock()
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tenant %s: %d batches unacked after %v", l.tenant, uint64(len(l.recs))-l.acked, timeout)
		}
		select {
		case <-l.wake:
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// read consumes the connection's frames until the lane closes.
func (l *lane) read(br *bufio.Reader) {
	defer close(l.readerDone)
	for {
		payload, err := serve.ReadFrame(br, serve.DefaultMaxFrame)
		if err != nil {
			if br = l.redial(); br == nil {
				return
			}
			continue
		}
		f, err := serve.DecodeFrame(payload)
		at := time.Now().UnixNano()
		l.mu.Lock()
		switch {
		case err != nil:
			l.violations++
		case f.Type == serve.FrameAck:
			seq := f.BatchSeq
			switch {
			case seq == l.acked+1 && seq <= l.sentHi:
				l.acked = seq
				l.recs[seq-1].ack = at
				if l.acked >= l.rewound {
					l.rewound = 0
				}
			case seq >= 1 && seq <= l.acked && l.recs[seq-1].sends > 1:
				// The immediate re-ack of a batch sent twice.
			default:
				l.violations++ // out of order, duplicated, or never sent
			}
		case f.Type == serve.FrameSlowdown:
			l.failed++
			from := max(f.BatchSeq, l.acked+1)
			// Every batch sent behind a rejected one is answered with
			// Slowdown(order) naming the same resend point: one rewind
			// answers them all until the server acks past it.
			if f.Reason == serve.SlowOrder && l.rewound != 0 && from >= l.rewound {
				break
			}
			l.rewound = from
			if l.resendFrom == 0 || from < l.resendFrom {
				l.resendFrom = from
			}
			l.pauseUntil = at + int64(time.Duration(f.RetryAfterMs)*time.Millisecond)
		case f.Type == serve.FrameError:
			l.failed++
		}
		l.mu.Unlock()
		l.signal()
	}
}

// redial replaces a dead connection: an eviction or reset counts as a
// failed attempt, the HelloAck watermark acks everything below it, and
// the rest is resent. It returns nil once the lane is closing.
func (l *lane) redial() *bufio.Reader {
	l.mu.Lock()
	if l.stopping {
		l.mu.Unlock()
		return nil
	}
	l.failed++
	l.conn.Close()
	l.mu.Unlock()
	for {
		conn, br, wm, err := hello(l.addr, l.tenant)
		l.mu.Lock()
		if l.stopping {
			l.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			l.mu.Unlock()
			time.Sleep(10 * time.Millisecond)
			continue
		}
		at := time.Now().UnixNano()
		for ; l.acked < wm && l.acked < l.sentHi; l.acked++ {
			l.recs[l.acked].ack = at
		}
		l.resendFrom, l.rewound = l.acked+1, 0
		l.conn = conn
		l.mu.Unlock()
		l.signal()
		return br
	}
}

// close ends the lane and waits for its reader.
func (l *lane) close() {
	l.mu.Lock()
	l.stopping = true
	l.conn.Close()
	l.mu.Unlock()
	<-l.readerDone
}

// sent returns the highest sequence assigned so far.
func (l *lane) sent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return uint64(len(l.recs))
}

// snapshot copies the lane's records and counters (after a drain).
func (l *lane) snapshot() ([]batchRec, int, int, int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.acked != uint64(len(l.recs)) {
		err = errors.New("lane not drained")
	}
	return append([]batchRec(nil), l.recs...), l.attempted, l.failed, l.violations, err
}
