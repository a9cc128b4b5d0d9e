// Fixture: the shape of placement's getScan. The scratch is a pointer
// pooled in a struct field and fetched through an if-init type
// assertion; keeping it in a package variable lets the next Get hand
// the same scratch to a second scan while the first still reads it.
package placement

import "sync"

type scanScratch struct {
	m   int
	dst []int
}

type OnlineHeuristic struct{ scanPool sync.Pool }

var lastScan *scanScratch

func (h *OnlineHeuristic) getScanRetained(m int) *scanScratch {
	if v := h.scanPool.Get(); v != nil {
		if s := v.(*scanScratch); s.m == m {
			lastScan = s // want `pooled buffer retained in package variable lastScan`
			return s
		}
	}
	return &scanScratch{m: m}
}

// getScan is the sanctioned form: the scratch is handed to the caller,
// who returns it through putScan.
func (h *OnlineHeuristic) getScan(m int) *scanScratch {
	if v := h.scanPool.Get(); v != nil {
		if s := v.(*scanScratch); s.m == m {
			return s
		}
	}
	return &scanScratch{m: m}
}

func (h *OnlineHeuristic) putScan(s *scanScratch) {
	s.dst = nil
	h.scanPool.Put(s)
}
