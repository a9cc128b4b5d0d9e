// Package queue implements the request wait queue of the paper's Section
// III.C: requests that cannot be admitted immediately wait until resources
// free up, are served by a configurable policy (FIFO or priority), and can
// be cancelled by their owner. GetRequests implements the paper's
// getRequests(Q, A): the maximal policy-ordered prefix of requests the
// current availability can admit together.
package queue

import (
	"errors"
	"fmt"
	"sync"

	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
)

// Policy orders the wait queue.
type Policy int

const (
	// FIFO serves requests in arrival order.
	FIFO Policy = iota
	// PriorityPolicy serves higher Priority first, FIFO within a level.
	PriorityPolicy
)

func (p Policy) String() string {
	switch p {
	case FIFO:
		return "fifo"
	case PriorityPolicy:
		return "priority"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// ErrNotFound is returned by Cancel for an unknown request ID.
var ErrNotFound = errors.New("queue: request not found")

// ErrFull is returned by Enqueue when the queue is at capacity — the
// paper notes "the length of the wait queue is limited".
var ErrFull = errors.New("queue: full")

// Queue is a bounded wait queue of virtual cluster requests. It is safe
// for concurrent use.
type Queue struct {
	mu       sync.Mutex
	policy   Policy
	capacity int // 0 = unbounded
	items    []model.TimedRequest
	seq      int // admission sequence for stable FIFO within priorities
	front    int // descending sequence handed to EnqueueFront insertions
	seqs     map[model.RequestID]int

	// Drain scratch, reused under mu: the running availability, the
	// policy order as item indices (priority only), and the take marks.
	remaining []int
	order     []int
	taken     []bool

	// obs handles; nil (no-op) unless Instrument was called.
	mEnqueued  *obs.Counter
	mRejected  *obs.Counter
	mCancelled *obs.Counter
	mAdmitted  *obs.Counter
	mDepth     *obs.Gauge
}

// New creates a queue with the given policy. capacity 0 means unbounded.
func New(policy Policy, capacity int) *Queue {
	return &Queue{policy: policy, capacity: capacity, seqs: make(map[model.RequestID]int)}
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

// Enqueue adds a request to the queue.
func (q *Queue) Enqueue(r model.TimedRequest) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.capacity > 0 && len(q.items) >= q.capacity {
		q.mRejected.Inc()
		return ErrFull
	}
	if _, dup := q.seqs[r.ID]; dup {
		q.mRejected.Inc()
		return fmt.Errorf("queue: duplicate request ID %d", r.ID)
	}
	q.items = append(q.items, r)
	q.seqs[r.ID] = q.seq
	q.seq++
	q.mEnqueued.Inc()
	q.mDepth.Set(float64(len(q.items)))
	return nil
}

// EnqueueFront inserts a request at the head of the policy order (first
// in FIFO order, first within its priority level). Fault recovery uses
// it to requeue a cluster torn down by a node failure: the victim keeps
// its original arrival time and gets first claim on repaired capacity
// instead of waiting behind requests that arrived after it was already
// being served.
func (q *Queue) EnqueueFront(r model.TimedRequest) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.capacity > 0 && len(q.items) >= q.capacity {
		q.mRejected.Inc()
		return ErrFull
	}
	if _, dup := q.seqs[r.ID]; dup {
		q.mRejected.Inc()
		return fmt.Errorf("queue: duplicate request ID %d", r.ID)
	}
	q.items = append(q.items, model.TimedRequest{})
	copy(q.items[1:], q.items)
	q.items[0] = r
	q.front--
	q.seqs[r.ID] = q.front
	q.mEnqueued.Inc()
	q.mDepth.Set(float64(len(q.items)))
	return nil
}

// removeAt deletes and returns items[i], dropping its seqs entry and
// zeroing the vacated tail slot so the backing array does not pin the
// removed request's vectors alive. Callers hold q.mu.
func (q *Queue) removeAt(i int) model.TimedRequest {
	r := q.items[i]
	delete(q.seqs, r.ID)
	last := len(q.items) - 1
	copy(q.items[i:], q.items[i+1:])
	q.items[last] = model.TimedRequest{}
	q.items = q.items[:last]
	q.mDepth.Set(float64(len(q.items)))
	return r
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

// Dequeue pops the first request in policy order, or reports false on an
// empty queue.
func (q *Queue) Dequeue() (model.TimedRequest, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return model.TimedRequest{}, false
	}
	i := 0
	if q.policy == PriorityPolicy {
		i = q.sortOrder()[0]
	}
	head := q.removeAt(i)
	q.mAdmitted.Inc()
	return head, true
}

// Peek returns the waiting requests in policy order without removing them.
// The returned slice is a fresh copy that never aliases the queue's
// backing array: removeAt/take zero vacated tail slots on every
// Dequeue/Cancel/GetRequests, so a result sharing storage with q.items
// would see its entries wiped by later queue operations. A caller may
// hold a Peek result across arbitrary mutations (pinned by
// TestPeekSurvivesMutation).
func (q *Queue) Peek() []model.TimedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.policy != PriorityPolicy {
		return append([]model.TimedRequest(nil), q.items...)
	}
	out := make([]model.TimedRequest, 0, len(q.items))
	for _, i := range q.sortOrder() {
		out = append(out, q.items[i])
	}
	return out
}

// sortOrder fills the order scratch with the item indices in priority
// order: higher Priority first, then admission sequence. FIFO order is
// the items order itself and needs no scratch. Callers hold q.mu.
//
//lint:hotpath
func (q *Queue) sortOrder() []int {
	q.order = q.order[:0]
	for i := range q.items {
		q.order = append(q.order, i)
	}
	// Insertion sort keeps the code dependency-free and the queue is
	// short by construction.
	o := q.order
	for i := 1; i < len(o); i++ {
		for j := i; j > 0; j-- {
			a, b := &q.items[o[j-1]], &q.items[o[j]]
			if b.Priority > a.Priority ||
				(b.Priority == a.Priority && q.seqs[b.ID] < q.seqs[a.ID]) {
				o[j-1], o[j] = o[j], o[j-1]
			} else {
				break
			}
		}
	}
	return o
}

// GetRequests implements the paper's getRequests(Q, A): walk the queue in
// policy order and take every request the running availability can still
// admit, removing the taken requests from the queue. Requests that do not
// fit are skipped, not blocked behind (the paper admits any subset the
// resources can meet). The result is a fresh slice, so like Peek it stays
// valid across later queue mutations.
func (q *Queue) GetRequests(avail []int) []model.TimedRequest {
	return q.AppendRequests(nil, avail)
}

// AppendRequests is GetRequests appending the taken requests, in policy
// order, to dst and returning the extended slice. The requests are
// copied into dst, which never aliases the queue, so a caller that keeps
// one buffer across drains allocates nothing once it has grown.
//
//lint:hotpath
func (q *Queue) AppendRequests(dst []model.TimedRequest, avail []int) []model.TimedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(dst, avail, false)
}

// GetRequestsStrict is the head-blocking variant: it stops at the first
// request in policy order that does not fit. Strict FIFO fairness avoids
// starving large requests at the cost of utilization; the cloud simulator
// exposes both for comparison.
func (q *Queue) GetRequestsStrict(avail []int) []model.TimedRequest {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.take(nil, avail, true)
}

// take is the getRequests walk shared by GetRequests, AppendRequests and
// GetRequestsStrict. It runs on queue-owned scratch: the availability is
// copied and decremented in place, the policy order is the items order
// (FIFO) or an index sort (priority), and taken items are marked by
// index, then compacted out of the queue with their seqs entries. A
// request whose vector width differs from avail never fits. Callers hold
// q.mu.
//
//lint:hotpath
func (q *Queue) take(dst []model.TimedRequest, avail []int, strict bool) []model.TimedRequest {
	n := len(q.items)
	if n == 0 {
		return dst
	}
	q.remaining = append(q.remaining[:0], avail...)
	var order []int
	if q.policy == PriorityPolicy {
		order = q.sortOrder()
	}
	if len(q.taken) < n {
		q.taken = make([]bool, n)
	}
	taken := q.taken[:n]
	clear(taken)
	count := 0
	for k := 0; k < n; k++ {
		i := k
		if order != nil {
			i = order[k]
		}
		r := &q.items[i]
		if len(r.Vector) != len(q.remaining) || !model.Covers(q.remaining, r.Vector) {
			if strict {
				break
			}
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
			delete(q.seqs, it.ID)
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
