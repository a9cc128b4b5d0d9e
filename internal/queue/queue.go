// Package queue implements the request wait queue of the paper's Section
// III.C: requests that cannot be admitted immediately wait until resources
// free up, are served in arrival (FIFO) order, and can be cancelled by
// their owner. GetRequests implements the paper's getRequests(Q, A): walk
// the queue in order and take every request the running availability can
// still admit.
package queue

import (
	"errors"
	"fmt"
	"sync"

	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
)

// Policy orders the wait queue. FIFO is its only value.
type Policy int

// FIFO serves requests in arrival order, with EnqueueFront insertions
// ahead of every waiting request.
const FIFO Policy = 0

// ErrNotFound is returned by Cancel for an unknown request ID.
var ErrNotFound = errors.New("queue: request not found")

// ErrFull is returned by Enqueue when the queue is at capacity — the
// paper notes "the length of the wait queue is limited".
var ErrFull = errors.New("queue: full")

// Queue is a bounded wait queue of virtual cluster requests. It is safe
// for concurrent use.
type Queue struct {
	mu       sync.Mutex
	capacity int // 0 = unbounded
	items    []model.TimedRequest
	ids      map[model.RequestID]struct{} // the waiting IDs, to refuse duplicates

	// Drain scratch, reused under mu: the running availability and the
	// take marks.
	remaining []int
	taken     []bool

	// obs handles; nil (no-op) unless Instrument was called.
	mEnqueued  *obs.Counter
	mRejected  *obs.Counter
	mCancelled *obs.Counter
	mAdmitted  *obs.Counter
	mDepth     *obs.Gauge
}

// New creates a queue; policy must be FIFO, the only Policy. capacity 0
// means unbounded.
func New(policy Policy, capacity int) *Queue {
	return &Queue{capacity: capacity, ids: make(map[model.RequestID]struct{})}
}

// Instrument resolves the queue's metric handles against a registry. A
// nil registry (or never calling Instrument) leaves the queue completely
// uninstrumented: every metric call is a nil-receiver no-op.
func (q *Queue) Instrument(r *obs.Registry) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.mEnqueued = r.Counter("queue.enqueued")
	q.mRejected = r.Counter("queue.rejected")
	q.mCancelled = r.Counter("queue.cancelled")
	q.mAdmitted = r.Counter("queue.admitted")
	q.mDepth = r.Gauge("queue.depth")
}

// Len returns the number of waiting requests.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Enqueue adds a request at the tail of the queue.
func (q *Queue) Enqueue(r model.TimedRequest) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.accept(r); err != nil {
		return err
	}
	q.items = append(q.items, r)
	q.mDepth.Set(float64(len(q.items)))
	return nil
}

// EnqueueFront inserts a request at the head of the queue. Fault recovery
// uses it to requeue a cluster torn down by a node failure: the victim
// keeps its original arrival time and gets first claim on repaired
// capacity instead of waiting behind requests that arrived after it was
// already being served.
func (q *Queue) EnqueueFront(r model.TimedRequest) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.accept(r); err != nil {
		return err
	}
	q.items = append(q.items, model.TimedRequest{})
	copy(q.items[1:], q.items)
	q.items[0] = r
	q.mDepth.Set(float64(len(q.items)))
	return nil
}

// accept checks the capacity bound and the duplicate-ID rule for a new
// request and records its ID. Callers hold q.mu.
func (q *Queue) accept(r model.TimedRequest) error {
	if q.capacity > 0 && len(q.items) >= q.capacity {
		q.mRejected.Inc()
		return ErrFull
	}
	if _, dup := q.ids[r.ID]; dup {
		q.mRejected.Inc()
		return fmt.Errorf("queue: duplicate request ID %d", r.ID)
	}
	q.ids[r.ID] = struct{}{}
	q.mEnqueued.Inc()
	return nil
}

// removeAt deletes items[i], dropping its ID entry and zeroing the
// vacated tail slot so the backing array does not pin the removed
// request's vectors alive. Callers hold q.mu.
func (q *Queue) removeAt(i int) {
	delete(q.ids, q.items[i].ID)
	last := len(q.items) - 1
	copy(q.items[i:], q.items[i+1:])
	q.items[last] = model.TimedRequest{}
	q.items = q.items[:last]
	q.mDepth.Set(float64(len(q.items)))
}

// Cancel removes a waiting request — the paper's "users can also cancel
// their jobs".
func (q *Queue) Cancel(id model.RequestID) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, it := range q.items {
		if it.ID == id {
			q.removeAt(i)
			q.mCancelled.Inc()
			return nil
		}
	}
	return ErrNotFound
}

// Peek returns the waiting requests in queue order without removing them.
// The returned slice is a fresh copy that never aliases the queue's
// backing array: removeAt/take zero vacated tail slots on every
// Cancel/GetRequests, so a result sharing storage with q.items
// would see its entries wiped by later queue operations. A caller may
// hold a Peek result across arbitrary mutations (pinned by
// TestPeekSurvivesMutation).
func (q *Queue) Peek() []model.TimedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]model.TimedRequest(nil), q.items...)
}

// GetRequests implements the paper's getRequests(Q, A): walk the queue in
// order and take every request the running availability can still
// admit, removing the taken requests from the queue. Requests that do not
// fit are skipped, not blocked behind (the paper admits any subset the
// resources can meet). The result is a fresh slice, so like Peek it stays
// valid across later queue mutations.
func (q *Queue) GetRequests(avail []int) []model.TimedRequest {
	return q.AppendRequests(nil, avail)
}

// AppendRequests is GetRequests appending the taken requests, in queue
// order, to dst and returning the extended slice. The requests are
// copied into dst, which never aliases the queue, so a caller that keeps
// one buffer across drains allocates nothing once it has grown.
func (q *Queue) AppendRequests(dst []model.TimedRequest, avail []int) []model.TimedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(dst, avail)
}

// take is the getRequests walk behind GetRequests and AppendRequests. It
// runs on queue-owned scratch: the availability is copied and decremented
// in place, and taken items are marked by index, then compacted out of
// the queue with their ID entries. A request whose vector width differs
// from avail never fits. Callers hold q.mu.
func (q *Queue) take(dst []model.TimedRequest, avail []int) []model.TimedRequest {
	n := len(q.items)
	if n == 0 {
		return dst
	}
	q.remaining = append(q.remaining[:0], avail...)
	if len(q.taken) < n {
		q.taken = make([]bool, n)
	}
	taken := q.taken[:n]
	clear(taken)
	count := 0
	for i := range q.items {
		r := &q.items[i]
		if len(r.Vector) != len(q.remaining) || !model.Covers(q.remaining, r.Vector) {
			continue
		}
		for j, v := range r.Vector {
			q.remaining[j] -= v
		}
		dst = append(dst, *r)
		taken[i] = true
		count++
	}
	if count == 0 {
		return dst
	}
	kept := q.items[:0]
	for i, it := range q.items {
		if taken[i] {
			delete(q.ids, it.ID)
		} else {
			kept = append(kept, it)
		}
	}
	// Zero the vacated tail: stale slots would otherwise pin request
	// vectors alive across long arrival streams.
	clear(q.items[len(kept):n])
	q.items = kept
	q.mAdmitted.Add(int64(count))
	q.mDepth.Set(float64(len(q.items)))
	return dst
}
