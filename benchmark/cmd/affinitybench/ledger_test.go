package main

import "testing"

// selfTime is the brute-force reference self time: the nanoseconds of
// parent's interval that no child covers.
func selfTime(parent span, children []span) int64 {
	self := int64(0)
	for t := parent.Start; t < parent.End; t++ {
		covered := false
		for _, c := range children {
			if c.Start <= t && t < c.End {
				covered = true
				break
			}
		}
		if !covered {
			self++
		}
	}
	return self
}

// TestLedgerSelfTime checks the streaming child coverage a ledger keeps
// for a tracked parent against the brute-force reference and a worked
// answer. Children arrive in start order, as one goroutine records them.
func TestLedgerSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 60}}, 80},
		{"touching", []span{{Start: 5, End: 9}, {Start: 9, End: 12}}, 93},
		{"overlapping", []span{{Start: 10, End: 20}, {Start: 15, End: 30}}, 80},
		{"nested", []span{{Start: 10, End: 50}, {Start: 20, End: 30}, {Start: 60, End: 70}}, 50},
		{"covering", []span{{Start: 0, End: 100}}, 0},
		{"empty child", []span{{Start: 30, End: 30}}, 100},
	} {
		l := newLedger()
		root := l.id()
		l.track(root)
		for _, ch := range c.children {
			l.add(0, root, "child", 7, ch.Start, ch.End)
		}
		parent := span{ID: root, Parent: -1, Start: 0, End: 100}
		l.add(parent.ID, parent.Parent, "parent", -1, parent.Start, parent.End)
		if got, ref := l.selfNS(parent), selfTime(parent, c.children); got != c.want || ref != c.want {
			t.Errorf("%s: ledger self time %d, reference %d, want %d", c.name, got, ref, c.want)
		}
		if got := l.calls("child"); got != len(c.children) {
			t.Errorf("%s: %d child calls recorded, want %d", c.name, got, len(c.children))
		}
	}
	l := newLedger()
	for _, d := range []int64{4, 3, 20} {
		l.add(0, -1, "x", -1, 10, 10+d)
	}
	if got := l.meanNS("x"); got != 9 {
		t.Errorf("mean = %v, want 9", got)
	}
	if got := l.totalNS("x", "missing"); got != 27 {
		t.Errorf("total = %v, want 27", got)
	}
}
