package obs

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// emitKinds emits one event per encoder path: every field kind, then
// keys, kinds and string values that take strconv.AppendQuote's escaping
// path instead of the plain-ASCII copy.
func emitKinds(r *Registry) {
	r.Emit("kinds", 12.5,
		F("int", -42),
		F("int64", int64(math.MaxInt64)),
		F("float", 0.1),
		F("whole", 3.0),
		F("big", 1e21),
		F("tiny", -2.5e-7),
		F("zero", math.Copysign(0, -1)),
		F("nan", math.NaN()),
		F("inf", math.Inf(1)),
		F("yes", true),
		F("no", false),
		F("nodes", []int{4, -5, 6}),
		F("none", []int(nil)),
		F("empty", []int{}),
		F("plain", "requeue_full"),
		F("blank", ""))
	r.Emit("escapes", 0,
		F("quote", `say "hi"`),
		F("backslash", `C:\tmp`),
		F("control", "tab\tnl\nnul\x00del\x7f"),
		F("unicode", "héllo ✓"),
		F("invalid", "bad\xffbyte"),
		F("separator", "line\u2028sep"),
		F(`odd "key"`, 1))
	r.Emit(`kind\with"escapes`, 1e-9)
}

// goldenKinds is emitKinds' JSONL, as the trace encoder has always
// written it (strconv formatting and quoting throughout).
const goldenKinds = `{"t":12.5,"kind":"kinds","int":-42,"int64":9223372036854775807,"float":0.1,"whole":3,"big":1e+21,"tiny":-2.5e-07,"zero":-0,"nan":NaN,"inf":+Inf,"yes":true,"no":false,"nodes":[4,-5,6],"none":[],"empty":[],"plain":"requeue_full","blank":""}
{"t":0,"kind":"escapes","quote":"say \"hi\"","backslash":"C:\\tmp","control":"tab\tnl\nnul\x00del\x7f","unicode":"héllo ✓","invalid":"bad\xffbyte","separator":"line\u2028sep","odd \"key\"":1}
{"t":1e-09,"kind":"kind\\with\"escapes"}
`

// TestEmitGolden pins the trace bytes of every field kind.
func TestEmitGolden(t *testing.T) {
	var streamed bytes.Buffer
	emitKinds(NewStreamingRegistry(&streamed))
	if got := streamed.String(); got != goldenKinds {
		t.Errorf("streamed trace:\n%s\nwant:\n%s", got, goldenKinds)
	}
}

// TestEmitZeroAllocs pins the "free when off" contract and its streaming
// counterpart: no registry allocates per event, nil, sink-less or
// streaming, whatever the field kinds, and the non-nil ones count every
// event.
func TestEmitZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	nodes := []int{3, 4}
	for _, tc := range []struct {
		name string
		r    *Registry
	}{
		{"nil", nil},
		{"sink-less", NewRegistry()},
		{"streaming", NewStreamingRegistry(io.Discard)},
	} {
		emit := func() {
			tc.r.Emit("resize_defer", 1234.5678,
				F("req", 17),
				F("cluster", 4),
				F("retry", 1239.5678),
				F("reason", "deadline"),
				F("nodes", nodes),
				F("ok", true),
				F("n", int64(3)))
		}
		emit() // size the sink buffer
		if avg := testing.AllocsPerRun(200, emit); avg != 0 {
			t.Errorf("%s registry: Emit allocates %.2f allocs/op, want 0", tc.name, avg)
		}
		// One sizing call, AllocsPerRun's warm-up and its 200 runs.
		if got := tc.r.EventCount(); tc.r != nil && got != 202 {
			t.Errorf("%s registry: EventCount = %d, want 202", tc.name, got)
		}
	}
}

// BenchmarkEmit streams three event shapes of the soak-elastic trace
// into a discarding sink: a place (time and wait are non-integer
// floats), a capacity-blocked resize_defer (its shortfall as three
// ints) and a queue-blocked resize_defer (time alone). Times cycle
// through 256 open-loop arrival instants, whose shortest forms run to
// 16 or 17 digits like the trace's, so no branch learns one value.
func BenchmarkEmit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var times, waits [256]float64
	now := 0.0
	for i := range times {
		now += rng.ExpFloat64() * 7
		times[i], waits[i] = now, rng.ExpFloat64()*60
	}
	for _, shape := range []struct {
		name string
		emit func(r *Registry, i int)
	}{
		{"place", func(r *Registry, i int) {
			r.Emit("place", times[i], F("req", i), F("center", 22), F("dc", 2.0), F("vms", 3), F("wait", waits[i]))
		}},
		{"resize_defer/capacity", func(r *Registry, i int) {
			r.Emit("resize_defer", times[i], F("req", i), F("cluster", i),
				F("reason", "capacity"), F("type", 0), F("need", 2), F("avail", 0))
		}},
		{"resize_defer/queue", func(r *Registry, i int) {
			r.Emit("resize_defer", times[i], F("req", i), F("cluster", i), F("reason", "queue"))
		}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := NewStreamingRegistry(io.Discard)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				shape.emit(r, i%len(times))
			}
		})
	}
}

// FuzzAppendFloat checks the float encoder against strconv.AppendFloat's
// shortest 'g' form over arbitrary float bits, seeded with floatEdges.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatEdges() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkAppendFloat(t, math.Float64frombits(bits))
	})
}

// FuzzAppendQuote checks the encoder's quoting fast path against
// strconv.AppendQuote, the byte-level contract of every trace string.
func FuzzAppendQuote(f *testing.F) {
	for _, s := range []string{"", "place", `a"b`, `a\b`, "\x00", "\x7f", " ~", "é", "\xff", "\u2028", "tab\t"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := appendQuote([]byte("x"), s)
		want := strconv.AppendQuote([]byte("x"), s)
		if !bytes.Equal(got, want) {
			t.Errorf("appendQuote(%q) = %s, want %s", s, got, want)
		}
	})
}
