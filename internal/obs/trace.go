// Structured event trace: one JSONL line per simulation decision, with a
// virtual timestamp and ordered key/value fields. Events are encoded
// through a hand-rolled encoder so field order and float formatting are
// deterministic (encoding/json would also work for the metric snapshot's
// sorted maps, but an event's fields are ordered by the emitter, and that
// order is part of the trace contract).
package obs

import (
	"math"
	"strconv"
)

// FieldValue is the closed set of value types an event field carries.
// Emitters convert named types (IDs, enums) at the call site.
type FieldValue interface {
	int | int64 | float64 | string | bool | []int
}

// fieldKind tags which member of Field holds the value.
type fieldKind uint8

const (
	kindInt fieldKind = iota
	kindInt64
	kindFloat
	kindString
	kindBool
	kindInts
)

// Field is one key/value pair of an event, in emission order. The value
// is held unboxed, so building a Field never allocates.
type Field struct {
	Key  string
	kind fieldKind
	num  uint64 // int, int64 and bool values; float64 bits
	str  string // string values
	ints []int  // []int values (fault node lists)
}

// F builds a Field; the one-letter name keeps emission sites compact.
func F[T FieldValue](key string, v T) Field {
	f := Field{Key: key}
	switch x := any(v).(type) {
	case int:
		f.kind, f.num = kindInt, uint64(x)
	case int64:
		f.kind, f.num = kindInt64, uint64(x)
	case float64:
		f.kind, f.num = kindFloat, math.Float64bits(x)
	case string:
		f.kind, f.str = kindString, x
	case bool:
		f.kind = kindBool
		if x {
			f.num = 1
		}
	case []int:
		f.kind, f.ints = kindInts, x
	}
	return f
}

// Emit records an event. No-op on a nil registry. The event is
// counted, and a registry with a sink (NewStreamingRegistry) encodes it
// into its reused buffer and writes it to the sink at once; a registry
// without a sink keeps no trace. Nothing is retained either way, so
// memory stays O(1) in the event count. The first write error is latched
// (SinkErr), and later events are still counted but dropped. Fields
// never escape, so the variadic slice stays on the caller's stack and
// Emit allocates nothing.
func (r *Registry) Emit(kind string, t float64, fields ...Field) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nEvents++
	if r.sink != nil && r.sinkErr == nil {
		r.sinkBuf = appendEvent(r.sinkBuf[:0], t, kind, fields)
		r.sinkBuf = append(r.sinkBuf, '\n')
		if _, err := r.sink.Write(r.sinkBuf); err != nil {
			r.sinkErr = err
		}
	}
	r.mu.Unlock()
}

// EventCount returns the number of emitted events, written to a sink or
// not.
func (r *Registry) EventCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nEvents
}

// SinkErr returns the first write error of a streaming registry, nil
// otherwise. Events emitted after a sink failure are counted but not
// written.
func (r *Registry) SinkErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// appendEvent renders one event as a single JSON object:
// {"t":12.5,"kind":"place","req":3,"dc":14}.
func appendEvent(b []byte, t float64, kind string, fields []Field) []byte {
	b = append(b, `{"t":`...)
	b = appendFloat(b, t)
	b = append(b, `,"kind":`...)
	b = appendQuote(b, kind)
	for i := range fields {
		b = appendKey(b, fields[i].Key)
		b = fields[i].appendValue(b)
	}
	b = append(b, '}')
	return b
}

func (f *Field) appendValue(b []byte) []byte {
	switch f.kind {
	case kindInt, kindInt64:
		b = strconv.AppendInt(b, int64(f.num), 10)
	case kindFloat:
		b = appendFloat(b, math.Float64frombits(f.num))
	case kindString:
		b = appendQuote(b, f.str)
	case kindBool:
		b = strconv.AppendBool(b, f.num != 0)
	default:
		// Node lists of fault events, serialized as a real JSON array so
		// trace consumers need no string re-parsing.
		b = append(b, '[')
		for i, v := range f.ints {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	return b
}

// appendQuote is strconv.AppendQuote with a copy fast path: a string of
// printable ASCII needing no escapes quotes to itself, which covers
// every key and kind and nearly every string value.
func appendQuote(b []byte, s string) []byte {
	if !plainASCII(s) {
		b = strconv.AppendQuote(b, s)
		return b
	}
	b = append(b, '"')
	b = append(b, s...)
	b = append(b, '"')
	return b
}

// appendKey writes a field's `,"key":`, quoting key as appendQuote does.
func appendKey(b []byte, key string) []byte {
	if !plainASCII(key) {
		b = append(b, ',')
		b = strconv.AppendQuote(b, key)
		b = append(b, ':')
		return b
	}
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return b
}

// plainASCII reports whether s is printable ASCII without '"' or '\\',
// the strings strconv.AppendQuote quotes to themselves.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}
