package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// span is one call the benchmark made into a layer of the program,
// timed from the benchmark's own files.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    int    `json:"req"`   // request the call served, -1 for none
	Start  int64  `json:"start"` // ns since the ledger's epoch
	End    int64  `json:"end"`
}

// series aggregates every span of one name.
type series struct {
	ns      []float64 // durations, ns, one per call
	sumNS   float64
	mallocs float64 // summed over the probed calls
	probed  int     // calls bracketed by ReadMemStats
}

// ledger records spans. Durations are kept per name, complete spans only
// for a deterministic 1-in-sampleEvery share (requests whose ID is a
// multiple, or every sampleEvery-th span of a name that serves no single
// request), and written out when the benchmark ends. One ledger belongs
// to one goroutine.
type ledger struct {
	epoch  time.Time
	nextID int
	byName map[string]*series
	sample []span
	ms     runtime.MemStats
	// cover accumulates, per tracked parent span, how much of its time
	// its children cover; see track and selfNS.
	cover map[int]*coverage
}

// coverage is the running union of intervals that arrive in
// non-decreasing start order — true of the children of one parent on
// one goroutine.
type coverage struct {
	s, e, covered int64
	open          bool
}

func (c *coverage) add(s, e int64) {
	if e <= s {
		return
	}
	if c.open && s <= c.e {
		c.e = max(c.e, e)
		return
	}
	c.close()
	c.s, c.e, c.open = s, e, true
}

func (c *coverage) close() {
	if c.open {
		c.covered += c.e - c.s
		c.open = false
	}
}

// track starts accumulating child coverage for parent id.
func (l *ledger) track(id int) { l.cover[id] = &coverage{} }

// selfNS is parent's duration minus the union of its tracked children.
func (l *ledger) selfNS(parent span) int64 {
	c := l.cover[parent.ID]
	if c == nil {
		return parent.End - parent.Start
	}
	c.close()
	return (parent.End - parent.Start) - c.covered
}

const sampleEvery = 64

// probeEvery brackets every probeEvery-th call of a name with
// ReadMemStats to count its allocations; the stop-the-world read is too
// costly for every call.
const probeEvery = 64

func newLedger() *ledger {
	return &ledger{epoch: time.Now(), byName: map[string]*series{}, cover: map[int]*coverage{}}
}

// now is the monotonic time since the epoch, ns.
func (l *ledger) now() int64 { return int64(time.Since(l.epoch)) }

// id reserves a span ID, so children can name a parent that has not
// ended yet.
func (l *ledger) id() int {
	l.nextID++
	return l.nextID
}

func (l *ledger) series(name string) *series {
	s := l.byName[name]
	if s == nil {
		s = &series{}
		l.byName[name] = s
	}
	return s
}

// add records a finished span under a reserved (or fresh, when id is 0)
// ID.
func (l *ledger) add(id, parent int, name string, req int, start, end int64) {
	if id == 0 {
		id = l.id()
	}
	if c := l.cover[parent]; c != nil {
		c.add(start, end)
	}
	s := l.series(name)
	d := float64(end - start)
	s.ns = append(s.ns, d)
	s.sumNS += d
	if (req >= 0 && req%sampleEvery == 0) || (req < 0 && len(s.ns)%sampleEvery == 1) {
		l.sample = append(l.sample, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	}
}

// call is an open timed call; see begin.
type call struct {
	name    string
	start   int64
	mallocs uint64
	probe   bool
}

// begin opens a timed call of name; end closes it. Every probeEvery-th
// call of a name also has its heap allocations counted. Both are no-ops
// on a nil ledger, so untimed twins of a timed path share its code.
func (l *ledger) begin(name string) call {
	if l == nil {
		return call{}
	}
	c := call{name: name}
	if s := l.series(name); len(s.ns)%probeEvery == probeEvery-1 {
		c.probe = true
		runtime.ReadMemStats(&l.ms)
		c.mallocs = l.ms.Mallocs
	}
	c.start = l.now()
	return c
}

func (l *ledger) end(c call, parent, req int) {
	if l == nil {
		return
	}
	end := l.now()
	l.add(0, parent, c.name, req, c.start, end)
	if c.probe {
		runtime.ReadMemStats(&l.ms)
		s := l.series(c.name)
		s.mallocs += float64(l.ms.Mallocs - c.mallocs)
		s.probed++
	}
}

// fork returns an empty ledger for another goroutine: same epoch, and
// span IDs from a range of its own (i ≥ 1) so merged samples stay unique.
func (l *ledger) fork(i int) *ledger {
	f := newLedger()
	f.epoch, f.nextID = l.epoch, i<<40
	return f
}

// merge folds a forked ledger's series and sampled spans into l.
func (l *ledger) merge(o *ledger) {
	l.sample = append(l.sample, o.sample...)
	for _, name := range o.names() {
		src, dst := o.byName[name], l.series(name)
		dst.ns = append(dst.ns, src.ns...)
		dst.sumNS += src.sumNS
		dst.mallocs += src.mallocs
		dst.probed += src.probed
	}
}

func (l *ledger) names() []string {
	out := make([]string, 0, len(l.byName))
	for n := range l.byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// meanNS is the mean duration of name (0 when never called).
func (l *ledger) meanNS(name string) float64 {
	s := l.byName[name]
	if s == nil {
		return 0
	}
	return s.sumNS / float64(len(s.ns))
}

// pctNS is a duration percentile of name (0 when never called).
func (l *ledger) pctNS(name string, p float64) float64 {
	s := l.byName[name]
	if s == nil {
		return 0
	}
	return percentile(s.ns, p)
}

// totalNS sums the durations of every named series.
func (l *ledger) totalNS(names ...string) float64 {
	t := 0.0
	for _, n := range names {
		if s := l.byName[n]; s != nil {
			t += s.sumNS
		}
	}
	return t
}

// allocsPerCall pools the probed calls of the named series: mallocs per
// call, and the number of probed calls.
func (l *ledger) allocsPerCall(names ...string) (float64, int) {
	m, n := 0.0, 0
	for _, name := range names {
		if s := l.byName[name]; s != nil {
			m += s.mallocs
			n += s.probed
		}
	}
	return frac(m, float64(n)), n
}

func (l *ledger) calls(name string) int {
	if s := l.byName[name]; s != nil {
		return len(s.ns)
	}
	return 0
}

// writeSample writes the sampled spans as JSONL.
func (l *ledger) writeSample(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.sample {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing span sample: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span sample: %w", err)
	}
	return f.Close()
}
