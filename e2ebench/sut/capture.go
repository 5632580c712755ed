package sut

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"morphstreamr/internal/serve"
	"morphstreamr/internal/storage"
)

// Capture is the audit's record of what the server fed: every ingest
// manifest append, written to a file as it happens. The manifest's
// garbage collection never reaches the file, and the copy stays out of
// the server's heap and resident set, which the benchmark measures.
type Capture struct {
	f   *os.File
	w   *bufio.Writer
	hdr []byte
}

// NewCapture creates (or truncates) the capture file at path.
func NewCapture(path string) (*Capture, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Capture{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

// Append records one ingest-manifest record: its epoch, its length and
// its payload.
func (c *Capture) Append(rec storage.Record) error {
	c.hdr = binary.AppendUvarint(c.hdr[:0], rec.Epoch)
	c.hdr = binary.AppendUvarint(c.hdr, uint64(len(rec.Payload)))
	if _, err := c.w.Write(c.hdr); err != nil {
		return err
	}
	_, err := c.w.Write(rec.Payload)
	return err
}

// Device closes the capture file and reads it back as a device whose ingest
// log holds every captured record, in the order they were appended.
func (c *Capture) Device() (storage.Device, error) {
	if err := errors.Join(c.w.Flush(), c.f.Close()); err != nil {
		return nil, err
	}
	f, err := os.Open(c.f.Name())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	dev := storage.NewMem()
	for {
		ep, err := binary.ReadUvarint(r)
		if errors.Is(err, io.EOF) {
			return dev, nil
		}
		n, err2 := binary.ReadUvarint(r)
		if err = errors.Join(err, err2); err != nil {
			return nil, fmt.Errorf("capture: %w", err)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return nil, fmt.Errorf("capture: epoch %d: %w", ep, err)
		}
		if err := dev.Append(serve.LogIngest, storage.Record{Epoch: ep, Payload: payload}); err != nil {
			return nil, err
		}
	}
}
