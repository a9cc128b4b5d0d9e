// Fixture: the shape of placement's ReleaseSubsetSparse. The scratch is
// a pointer pooled in a package variable and fetched through a type
// assertion; keeping it in a package variable past the call lets a
// second shrink reuse the same scratch while the pool hands it to a
// shrink on another goroutine.
package placement

import "sync"

type releaseScratch struct {
	cells   []int
	victims []int
}

var releasePool = sync.Pool{New: func() any { return new(releaseScratch) }}

var lastRelease *releaseScratch

func releaseRetained(cur []int) []int {
	sc := releasePool.Get().(*releaseScratch)
	if lastRelease != nil {
		sc = lastRelease
	}
	lastRelease = sc // want `pooled buffer retained in package variable lastRelease`
	defer putRelease(sc)
	victims := append(sc.victims[:0], cur...)
	sc.victims = victims
	return append([]int(nil), victims...)
}

// release is the sanctioned form: the scratch lives for one call and
// goes back through putRelease, and the caller gets a copy.
func release(cur []int) []int {
	sc := releasePool.Get().(*releaseScratch)
	defer putRelease(sc)
	victims := append(sc.victims[:0], cur...)
	sc.victims = victims
	return append([]int(nil), victims...)
}

func putRelease(sc *releaseScratch) {
	sc.cells = sc.cells[:0]
	sc.victims = sc.victims[:0]
	releasePool.Put(sc)
}
