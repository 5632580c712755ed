package sut

import (
	"morphstreamr/internal/serve"
	"morphstreamr/internal/storage"
)

// Device wraps one storage.Device. With a Recorder it records a span per
// append, blob write, truncation, release and read (one per cursor
// record), parented to the backend call in flight on the pump goroutine.
// With a Capture it tees every ingest-manifest append there: the copy is
// the audit's record of what the server fed. It forwards storage.LogReader and
// storage.Releaser whether or not the inner device implements them,
// falling back exactly as storage.ReadFrom and storage.Release would.
type Device struct {
	Inner   storage.Device
	rec     *Recorder
	dev     int
	capture *Capture
}

// NewDevice wraps inner as device number dev (a shard index or CoordDev).
// rec and capture may each be nil.
func NewDevice(inner storage.Device, dev int, rec *Recorder, capture *Capture) *Device {
	return &Device{Inner: inner, rec: rec, dev: dev, capture: capture}
}

func (d *Device) span(op, name string, t0 int64, bytes int) {
	d.rec.add(Span{
		ID: d.rec.id(), Parent: d.rec.cur.Load(), Layer: "device", Op: op, Name: name,
		Dev: d.dev, Start: t0, End: now(), Bytes: int64(bytes),
	})
}

// Append implements storage.Device.
func (d *Device) Append(log string, rec storage.Record) error {
	var t0 int64
	if d.rec != nil {
		t0 = now()
	}
	err := d.Inner.Append(log, rec)
	if d.rec != nil {
		d.span("append", log, t0, len(rec.Payload))
	}
	if err == nil && d.capture != nil && log == serve.LogIngest {
		return d.capture.Append(rec)
	}
	return err
}

// WriteBlob implements storage.Device.
func (d *Device) WriteBlob(name string, payload []byte) error {
	if d.rec == nil {
		return d.Inner.WriteBlob(name, payload)
	}
	t0 := now()
	err := d.Inner.WriteBlob(name, payload)
	d.span("blob", name, t0, len(payload))
	return err
}

// Truncate implements storage.Device.
func (d *Device) Truncate(log string, upTo uint64) error {
	if d.rec == nil {
		return d.Inner.Truncate(log, upTo)
	}
	t0 := now()
	err := d.Inner.Truncate(log, upTo)
	d.span("truncate", log, t0, 0)
	return err
}

// ReleaseThrough implements storage.Releaser.
func (d *Device) ReleaseThrough(log string, epoch uint64) error {
	if d.rec == nil {
		return storage.Release(d.Inner, log, epoch)
	}
	t0 := now()
	err := storage.Release(d.Inner, log, epoch)
	d.span("release", log, t0, 0)
	return err
}

// ReadFrom implements storage.LogReader.
func (d *Device) ReadFrom(log string, fromEpoch uint64) (storage.Cursor, error) {
	cur, err := storage.ReadFrom(d.Inner, log, fromEpoch)
	if err != nil || d.rec == nil {
		return cur, err
	}
	return &cursor{Cursor: cur, d: d, log: log}, nil
}

// ReadLog implements storage.Device.
func (d *Device) ReadLog(log string) ([]storage.Record, error) {
	if d.rec == nil {
		return d.Inner.ReadLog(log)
	}
	t0 := now()
	recs, err := d.Inner.ReadLog(log)
	n := 0
	for _, r := range recs {
		n += len(r.Payload)
	}
	d.span("read", log, t0, n)
	return recs, err
}

// ReadBlob implements storage.Device.
func (d *Device) ReadBlob(name string) ([]byte, bool, error) {
	if d.rec == nil {
		return d.Inner.ReadBlob(name)
	}
	t0 := now()
	b, ok, err := d.Inner.ReadBlob(name)
	d.span("read", name, t0, len(b))
	return b, ok, err
}

// BytesWritten implements storage.Device.
func (d *Device) BytesWritten() map[string]int64 { return d.Inner.BytesWritten() }

// cursor times each record read; the time a caller spends between reads
// belongs to the caller, not the device.
type cursor struct {
	storage.Cursor
	d   *Device
	log string
}

func (c *cursor) Next() (storage.Record, bool, error) {
	t0 := now()
	rec, ok, err := c.Cursor.Next()
	c.d.span("read", c.log, t0, len(rec.Payload))
	return rec, ok, err
}
