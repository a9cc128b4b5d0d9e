// Fixture for the scratchpool analyzer: slice Puts without length reset
// and pooled buffers retained beyond the call fire; the sanctioned
// reset-then-Put and return-handoff shapes stay clean.
package scratchpool

import "sync"

var pool sync.Pool

var global []byte

type cache struct{ buf []byte }

func putNoReset(buf []byte) {
	pool.Put(buf) // want `slice buf returned to sync\.Pool without a length reset`
}

func putResetOK(buf []byte) {
	buf = buf[:0]
	pool.Put(buf)
}

func putInlineOK(buf []byte) {
	pool.Put(buf[:0])
}

func putPtrNoReset(buf *[]byte) {
	pool.Put(buf) // want `slice buf returned to sync\.Pool without a length reset`
}

func putStructOK(c *cache) {
	// Non-slice values own their reset discipline; not scratchpool's call.
	pool.Put(c)
}

func retainField(c *cache) {
	b := pool.Get().([]byte)
	c.buf = b // want `pooled buffer retained in field c\.buf`
}

func retainGlobal() {
	b := pool.Get().([]byte)
	global = b // want `pooled buffer retained in package variable global`
}

func retainCollection(m map[string][]byte) {
	b := pool.Get().([]byte)
	m["k"] = b // want `pooled buffer retained in collection m`
}

func retainChan(ch chan []byte) {
	b := pool.Get().([]byte)
	ch <- b // want `pooled buffer sent over a channel`
}

func aliasRetain(c *cache) {
	v := pool.Get()
	b := v.([]byte)
	c.buf = b // want `pooled buffer retained in field c\.buf`
}

func handoffOK() []byte {
	// Returning transfers ownership to the caller.
	b := pool.Get().([]byte)
	return b
}

func localUseOK() int {
	b := pool.Get().([]byte)
	n := len(b)
	b = append(b[:0], 1, 2, 3)
	pool.Put(b[:0])
	return n
}
