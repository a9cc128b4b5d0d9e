// Package model defines the basic vocabulary of the affinity-aware virtual
// cluster provisioning system: virtual machine types, the catalog of types a
// cloud offers (Table I of the paper), and user requests for virtual
// clusters (the request vector R of Section II).
//
// All heavier machinery — topologies, inventories, placement algorithms —
// builds on these types.
package model

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// VMTypeID indexes a VM type within a Catalog. Values are dense: the j-th
// type of a catalog has VMTypeID j, matching the paper's subscript V_j.
type VMTypeID int

// VMType describes one virtual machine flavor a provider offers, mirroring
// the Amazon EC2-style instance descriptions in Table I of the paper.
type VMType struct {
	// Name is the human-readable flavor name, e.g. "small".
	Name string
	// MemoryGB is the RAM allocated to an instance of this type.
	MemoryGB float64
	// ComputeUnits is the CPU capacity in EC2-style compute units.
	ComputeUnits int
	// StorageGB is the instance storage.
	StorageGB int
	// Platform is the ISA width, e.g. "32-bit" or "64-bit".
	Platform string
}

// Catalog is the ordered set of VM types offered by a cloud. Its length is
// the paper's m. Order is significant: request vectors and allocation
// matrices are indexed by position in the catalog.
type Catalog []VMType

// DefaultCatalog reproduces Table I of the paper: the three Amazon EC2
// instance types (small, medium, large) used throughout the evaluation.
func DefaultCatalog() Catalog {
	return Catalog{
		{Name: "small", MemoryGB: 1.7, ComputeUnits: 1, StorageGB: 160, Platform: "32-bit"},
		{Name: "medium", MemoryGB: 3.75, ComputeUnits: 2, StorageGB: 410, Platform: "64-bit"},
		{Name: "large", MemoryGB: 7.5, ComputeUnits: 4, StorageGB: 850, Platform: "64-bit"},
	}
}

// Types returns the number of VM types in the catalog (the paper's m).
func (c Catalog) Types() int { return len(c) }

// Validate checks that the catalog is well-formed: non-empty, unique
// non-empty names, and positive resource figures.
func (c Catalog) Validate() error {
	if len(c) == 0 {
		return errors.New("model: catalog is empty")
	}
	seen := make(map[string]bool, len(c))
	for i, t := range c {
		if t.Name == "" {
			return fmt.Errorf("model: catalog entry %d has empty name", i)
		}
		if seen[t.Name] {
			return fmt.Errorf("model: duplicate VM type name %q", t.Name)
		}
		seen[t.Name] = true
		if t.MemoryGB <= 0 || t.ComputeUnits <= 0 || t.StorageGB <= 0 {
			return fmt.Errorf("model: VM type %q has non-positive resources", t.Name)
		}
	}
	return nil
}

// Request is the paper's request vector R: Request[j] instances of catalog
// type j are being asked for, all provisioned at the same time as one
// virtual cluster.
type Request []int

// Clone returns an independent copy of the request.
func (r Request) Clone() Request {
	out := make(Request, len(r))
	copy(out, r)
	return out
}

// TotalVMs returns the total number of VMs requested across all types.
func (r Request) TotalVMs() int {
	n := 0
	for _, k := range r {
		n += k
	}
	return n
}

// IsZero reports whether the request asks for no VMs at all.
func (r Request) IsZero() bool { return r.TotalVMs() == 0 }

// Validate checks the request against a catalog: the length must equal the
// number of types and every count must be non-negative, with at least one
// positive entry.
func (r Request) Validate(c Catalog) error {
	if len(r) != c.Types() {
		return fmt.Errorf("model: request has %d entries, catalog has %d types", len(r), c.Types())
	}
	total := 0
	for j, k := range r {
		if k < 0 {
			return fmt.Errorf("model: request count for type %d is negative (%d)", j, k)
		}
		total += k
	}
	if total == 0 {
		return errors.New("model: request asks for zero VMs")
	}
	return nil
}

// String renders the request as e.g. "{small:2 medium:4 large:1}" when a
// catalog is not at hand; type indices are used as names.
func (r Request) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for j, k := range r {
		if k == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "V%d:%d", j, k)
	}
	if first {
		b.WriteString("empty")
	}
	b.WriteByte('}')
	return b.String()
}

// Min returns the element-wise minimum of two equal-length vectors. It is
// the paper's com(A, B) helper: com(A, B) == B holds exactly when A can
// supply everything B asks for.
func Min(a, b []int) []int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("model: Min on vectors of different lengths %d and %d", len(a), len(b)))
	}
	out := make([]int, len(a))
	for i := range a {
		if a[i] < b[i] {
			out[i] = a[i]
		} else {
			out[i] = b[i]
		}
	}
	return out
}

// Covers reports whether vector a dominates vector b element-wise, i.e.
// com(a, b) == b in the paper's notation: a can satisfy all of b. a must
// be at least as wide as b; a shorter a panics on the index. It has no
// width check of its own so that it inlines into the placement scans.
func Covers(a, b []int) bool {
	for i, need := range b {
		if a[i] < need {
			return false
		}
	}
	return true
}

// Sub returns a-b element-wise. It panics if lengths differ.
func Sub(a, b []int) []int {
	if len(a) != len(b) {
		panic(fmt.Sprintf("model: Sub on vectors of different lengths %d and %d", len(a), len(b)))
	}
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// Sum returns the sum of the entries of v.
func Sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}

// ErrCapacityOverflow marks a capacity matrix, or a change to one, whose
// cells sum past math.MaxInt.
var ErrCapacityOverflow = errors.New("model: capacity total overflows int")

// AddCapacity adds one capacity cell k to a running total of cells,
// refusing with ErrCapacityOverflow a sum past math.MaxInt. Every entry
// point that accepts a capacity matrix sums its cells through it: each
// row, column, rack, cloud and availability total over the matrix is a
// partial sum of the same non-negative cells, so a matrix that passes
// cannot wrap any of them negative. Negative cells are the caller's to
// refuse; they never overflow.
func AddCapacity(total, k int) (int, error) {
	if k > 0 && total > math.MaxInt-k {
		return 0, ErrCapacityOverflow
	}
	return total + k, nil
}

// RequestID identifies a request within a batch, queue, or simulation run.
type RequestID int

// TimedRequest couples a request vector with queueing metadata used by the
// wait queue and the cloud simulator.
type TimedRequest struct {
	ID      RequestID
	Vector  Request
	Arrival float64 // arrival time, simulation seconds
	Hold    float64 // service duration once provisioned, simulation seconds
}

// RequestSource streams timed requests one at a time, so multi-million
// request traces can be generated or replayed without ever materializing
// them as a slice. Implementations must yield requests in non-decreasing
// arrival order with strictly increasing IDs — that ordering is what lets
// consumers (the cloud simulator's streaming run, the trace writer's
// validator) do duplicate detection and scheduling in O(1) memory.
type RequestSource interface {
	// Next returns the next request. ok=false means the source is
	// exhausted; a non-nil error aborts the stream.
	Next() (r TimedRequest, ok bool, err error)
}

// SliceSource adapts an in-memory request slice to RequestSource, for
// callers that already hold a (small) trace.
type SliceSource struct {
	reqs []TimedRequest
	i    int
}

// NewSliceSource wraps reqs; the slice is read, never mutated.
func NewSliceSource(reqs []TimedRequest) *SliceSource { return &SliceSource{reqs: reqs} }

// Next yields the next element of the slice.
//
//lint:shared requests are immutable by contract; cloning per Next defeats zero-copy streaming
func (s *SliceSource) Next() (TimedRequest, bool, error) {
	if s.i >= len(s.reqs) {
		return TimedRequest{}, false, nil
	}
	r := s.reqs[s.i]
	s.i++
	return r, true, nil
}
