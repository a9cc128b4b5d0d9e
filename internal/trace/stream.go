// Package trace records and replays virtual-cluster request traces as
// JSONL — a header line followed by one request per line — so that
// simulation scenarios (the paper's "twenty requests ... generated
// randomly") can be archived, shared, and replayed exactly. Both ends
// stream: gentrace can emit and the cloud simulator can replay
// multi-million-request traces in O(1) trace memory. Validation is
// incremental, request by request, with duplicate detection done in
// O(1) by requiring strictly increasing request IDs (a map of seen IDs
// would itself be O(history)).
package trace

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"affinitycluster/internal/model"
)

// FormatVersion is the trace schema version written by this package.
const FormatVersion = 1

// StreamFormat is the format tag on a JSONL trace's header line.
const StreamFormat = "jsonl"

// streamHeader is the first line of a JSONL trace.
type streamHeader struct {
	Version     int    `json:"version"`
	Format      string `json:"format"`
	Types       int    `json:"types"`
	Description string `json:"description,omitempty"`
}

// streamRecord is one request line. Field tags keep lines compact and the
// schema explicit rather than tied to model.TimedRequest's field names.
type streamRecord struct {
	ID      model.RequestID `json:"id"`
	Vector  model.Request   `json:"vec"`
	Arrival float64         `json:"at"`
	Hold    float64         `json:"hold"`
}

// validateStreamed checks one request against the stream invariants:
// vector shape, finite non-negative times, strictly increasing IDs, and
// non-decreasing arrivals. prevID/prevArrival carry the running state
// (prevID −1 and prevArrival 0 before the first request).
func validateStreamed(r model.TimedRequest, types int, prevID model.RequestID, prevArrival float64) error {
	if len(r.Vector) != types {
		return fmt.Errorf("trace: request %d has %d types, trace declares %d", r.ID, len(r.Vector), types)
	}
	for j, k := range r.Vector {
		if k < 0 {
			return fmt.Errorf("trace: request %d has negative count for type %d", r.ID, j)
		}
	}
	if r.Vector.IsZero() {
		return fmt.Errorf("trace: request %d asks for zero VMs", r.ID)
	}
	for _, t := range []float64{r.Arrival, r.Hold} {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("trace: request %d has invalid time (arrival %v, hold %v)", r.ID, r.Arrival, r.Hold)
		}
	}
	if r.ID <= prevID {
		return fmt.Errorf("trace: request ID %d not strictly increasing (previous %d)", r.ID, prevID)
	}
	if r.Arrival < prevArrival {
		return fmt.Errorf("trace: request %d arrives at %v, before previous %v", r.ID, r.Arrival, prevArrival)
	}
	return nil
}

// Writer emits a JSONL trace incrementally. Create with NewWriter, feed
// requests with Write, and finish with Flush (or Close on a file-backed
// writer from CreateFile).
type Writer struct {
	bw          *bufio.Writer
	f           *os.File // non-nil only for CreateFile writers
	types       int
	prevID      model.RequestID
	prevArrival float64
}

// NewWriter writes the header line and returns a streaming writer.
func NewWriter(w io.Writer, description string, types int) (*Writer, error) {
	if types <= 0 {
		return nil, errors.New("trace: non-positive type count")
	}
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(streamHeader{
		Version:     FormatVersion,
		Format:      StreamFormat,
		Types:       types,
		Description: description,
	})
	if err != nil {
		return nil, err
	}
	if _, err := bw.Write(append(hdr, '\n')); err != nil {
		return nil, err
	}
	return &Writer{bw: bw, types: types, prevID: -1}, nil
}

// CreateFile creates path and returns a writer over it; Close finishes
// both the stream and the file.
func CreateFile(path, description string, types int) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(f, description, types)
	if err != nil {
		f.Close()
		return nil, err
	}
	w.f = f
	return w, nil
}

// Write validates and appends one request line.
func (w *Writer) Write(r model.TimedRequest) error {
	if err := validateStreamed(r, w.types, w.prevID, w.prevArrival); err != nil {
		return err
	}
	line, err := json.Marshal(streamRecord{
		ID:      r.ID,
		Vector:  r.Vector,
		Arrival: r.Arrival,
		Hold:    r.Hold,
	})
	if err != nil {
		return err
	}
	if _, err := w.bw.Write(append(line, '\n')); err != nil {
		return err
	}
	w.prevID, w.prevArrival = r.ID, r.Arrival
	return nil
}

// Flush drains the buffer to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Close flushes and, for CreateFile writers, closes the file.
func (w *Writer) Close() error {
	if err := w.bw.Flush(); err != nil {
		if w.f != nil {
			w.f.Close()
		}
		return err
	}
	if w.f != nil {
		return w.f.Close()
	}
	return nil
}

// Reader replays a JSONL trace incrementally; it implements
// model.RequestSource, so it plugs straight into the cloud simulator's
// streaming run. Each line is validated as it is read with the same
// invariants the writer enforced.
type Reader struct {
	sc          *bufio.Scanner
	hdr         streamHeader
	prevID      model.RequestID
	prevArrival float64
	line        int
}

// NewReader consumes the header line and returns a streaming reader.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: reading header: %w", err)
		}
		return nil, errors.New("trace: empty stream")
	}
	var hdr streamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("trace: decoding header: %w", err)
	}
	if hdr.Version != FormatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", hdr.Version, FormatVersion)
	}
	if hdr.Format != StreamFormat {
		return nil, fmt.Errorf("trace: header format %q, want %q", hdr.Format, StreamFormat)
	}
	if hdr.Types <= 0 {
		return nil, errors.New("trace: non-positive type count")
	}
	return &Reader{sc: sc, hdr: hdr, prevID: -1, line: 1}, nil
}

// Types returns the trace's declared VM type count.
func (r *Reader) Types() int { return r.hdr.Types }

// Description returns the trace's description.
func (r *Reader) Description() string { return r.hdr.Description }

// Next returns the next request; ok=false at a clean end of stream.
func (r *Reader) Next() (model.TimedRequest, bool, error) {
	for r.sc.Scan() {
		r.line++
		raw := r.sc.Bytes()
		if len(raw) == 0 {
			continue // tolerate a trailing blank line
		}
		var rec streamRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return model.TimedRequest{}, false, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		req := model.TimedRequest{
			ID:      rec.ID,
			Vector:  rec.Vector,
			Arrival: rec.Arrival,
			Hold:    rec.Hold,
		}
		if err := validateStreamed(req, r.hdr.Types, r.prevID, r.prevArrival); err != nil {
			return model.TimedRequest{}, false, fmt.Errorf("trace: line %d: %w", r.line, err)
		}
		r.prevID, r.prevArrival = req.ID, req.Arrival
		return req, true, nil
	}
	if err := r.sc.Err(); err != nil {
		return model.TimedRequest{}, false, err
	}
	return model.TimedRequest{}, false, nil
}

// CopySource drains src into w — the bridge from any request generator
// (e.g. workload.OpenLoop) to a JSONL trace file. It returns the number
// of requests written.
func CopySource(w *Writer, src model.RequestSource) (int, error) {
	n := 0
	for {
		r, ok, err := src.Next()
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		if err := w.Write(r); err != nil {
			return n, err
		}
		n++
	}
}
