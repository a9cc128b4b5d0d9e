package model

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultCatalogMatchesTableI(t *testing.T) {
	c := DefaultCatalog()
	if err := c.Validate(); err != nil {
		t.Fatalf("default catalog invalid: %v", err)
	}
	if got, want := c.Types(), 3; got != want {
		t.Fatalf("Types() = %d, want %d", got, want)
	}
	// Table I rows, verbatim from the paper.
	want := []VMType{
		{"small", 1.7, 1, 160, "32-bit"},
		{"medium", 3.75, 2, 410, "64-bit"},
		{"large", 7.5, 4, 850, "64-bit"},
	}
	for i, w := range want {
		if c[i] != w {
			t.Errorf("catalog[%d] = %+v, want %+v", i, c[i], w)
		}
	}
}

func TestCatalogValidateRejectsBadCatalogs(t *testing.T) {
	cases := []struct {
		name string
		c    Catalog
	}{
		{"empty", Catalog{}},
		{"empty name", Catalog{{Name: "", MemoryGB: 1, ComputeUnits: 1, StorageGB: 1}}},
		{"duplicate", Catalog{
			{Name: "a", MemoryGB: 1, ComputeUnits: 1, StorageGB: 1},
			{Name: "a", MemoryGB: 2, ComputeUnits: 2, StorageGB: 2},
		}},
		{"zero memory", Catalog{{Name: "a", MemoryGB: 0, ComputeUnits: 1, StorageGB: 1}}},
		{"zero cpu", Catalog{{Name: "a", MemoryGB: 1, ComputeUnits: 0, StorageGB: 1}}},
	}
	for _, tc := range cases {
		if err := tc.c.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	c := DefaultCatalog()
	if err := (Request{2, 4, 1}).Validate(c); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	if err := (Request{2, 4}).Validate(c); err == nil {
		t.Error("short request accepted")
	}
	if err := (Request{-1, 4, 1}).Validate(c); err == nil {
		t.Error("negative request accepted")
	}
	if err := (Request{0, 0, 0}).Validate(c); err == nil {
		t.Error("zero request accepted")
	}
}

func TestRequestTotalAndClone(t *testing.T) {
	r := Request{2, 4, 1}
	if got := r.TotalVMs(); got != 7 {
		t.Errorf("TotalVMs = %d, want 7", got)
	}
	cl := r.Clone()
	cl[0] = 99
	if r[0] != 2 {
		t.Error("Clone aliases the original")
	}
	if Request([]int{0, 0}).IsZero() != true {
		t.Error("IsZero false for zero request")
	}
}

func TestRequestString(t *testing.T) {
	if got := (Request{2, 0, 1}).String(); got != "{V0:2 V2:1}" {
		t.Errorf("String() = %q", got)
	}
	if got := (Request{0, 0}).String(); got != "{empty}" {
		t.Errorf("String() of zero request = %q", got)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []int{3, 1, 5}
	b := []int{2, 4, 5}
	if got := Min(a, b); got[0] != 2 || got[1] != 1 || got[2] != 5 {
		t.Errorf("Min = %v", got)
	}
	if Covers(a, b) {
		t.Error("Covers(a,b) = true, want false")
	}
	if !Covers([]int{3, 4, 5}, b) {
		t.Error("Covers = false, want true")
	}
	if got := Sub(a, []int{1, 1, 1}); got[0] != 2 || got[1] != 0 || got[2] != 4 {
		t.Errorf("Sub = %v", got)
	}
	if got := Add(a, b); got[0] != 5 || got[1] != 5 || got[2] != 10 {
		t.Errorf("Add = %v", got)
	}
	if got := Sum(a); got != 9 {
		t.Errorf("Sum = %d", got)
	}
}

// TestCoversWiderRow: a may be wider than b, as a node's row is against a
// request over fewer types; Covers reads only b's width of a.
func TestCoversWiderRow(t *testing.T) {
	if !Covers([]int{2, 1, 0}, []int{2, 1}) {
		t.Error("Covers([2 1 0], [2 1]) = false, want true")
	}
	if Covers([]int{2, 0, 9}, []int{2, 1}) {
		t.Error("Covers([2 0 9], [2 1]) = true: a surplus past b's width counted")
	}
	if !Covers([]int{0}, nil) {
		t.Error("Covers(a, nil) = false, want true")
	}
}

func TestVectorHelpersPanicOnLengthMismatch(t *testing.T) {
	fns := map[string]func(){
		"Min":    func() { Min([]int{1}, []int{1, 2}) },
		"Covers": func() { Covers([]int{1}, []int{1, 2}) },
		"Sub":    func() { Sub([]int{1}, []int{1, 2}) },
		"Add":    func() { Add([]int{1}, []int{1, 2}) },
	}
	for name, fn := range fns {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// Property: Min is commutative, idempotent, and dominated by both arguments;
// Covers(a, b) holds exactly when Min(a, b) equals b.
func TestQuickMinCoversAgree(t *testing.T) {
	f := func(xs [8]uint8, ys [8]uint8) bool {
		a := make([]int, 8)
		b := make([]int, 8)
		for i := range xs {
			a[i] = int(xs[i])
			b[i] = int(ys[i])
		}
		m := Min(a, b)
		m2 := Min(b, a)
		for i := range m {
			if m[i] != m2[i] || m[i] > a[i] || m[i] > b[i] {
				return false
			}
		}
		eqB := true
		for i := range m {
			if m[i] != b[i] {
				eqB = false
			}
		}
		return Covers(a, b) == eqB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add and Sub are inverses.
func TestQuickAddSubInverse(t *testing.T) {
	f := func(xs [6]int16, ys [6]int16) bool {
		a := make([]int, 6)
		b := make([]int, 6)
		for i := range xs {
			a[i] = int(xs[i])
			b[i] = int(ys[i])
		}
		r := Sub(Add(a, b), b)
		for i := range r {
			if r[i] != a[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddCapacity pins the shared overflow check every capacity entry
// point sums through: a total may reach math.MaxInt but not pass it, and
// a zero or negative cell never overflows.
func TestAddCapacity(t *testing.T) {
	for _, tc := range []struct {
		total, k, want int
		overflow       bool
	}{
		{0, 5, 5, false},
		{math.MaxInt - 1, 1, math.MaxInt, false},
		{math.MaxInt, 0, math.MaxInt, false},
		{math.MaxInt, 1, 0, true},
		{math.MaxInt / 2, math.MaxInt/2 + 2, 0, true},
		{9000000000000000000, 9000000000000000000, 0, true},
		{5, -3, 2, false},
		{-1, math.MaxInt, math.MaxInt - 1, false},
	} {
		got, err := AddCapacity(tc.total, tc.k)
		if tc.overflow {
			if !errors.Is(err, ErrCapacityOverflow) {
				t.Errorf("AddCapacity(%d, %d) = (%d, %v), want ErrCapacityOverflow", tc.total, tc.k, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("AddCapacity(%d, %d) = (%d, %v), want %d", tc.total, tc.k, got, err, tc.want)
		}
	}
}
