package client

// Candidate is an R-tree node reference held in a search's candidate queue.
// The reference was read from the node's parent page, so the MBR and the
// arrival-time pointer are known before the node itself is downloaded —
// that is exactly the information a real air-index entry carries.
//
// The reference is fully pointer-free: Key is the node's preorder ID (the
// broadcast page key) and Ent is the index of the node's child entry in
// the tree's SoA image (rtree.Flat), from which the MBR is re-read at pop
// time as four contiguous float64 loads. A queue of these is a flat
// int64/int32 array the garbage collector never scans.
type Candidate struct {
	Arrival int64 // next on-air slot, computed when the candidate was enqueued
	Key     int32 // referenced node's preorder ID
	Ent     int32 // index into the Flat node-entry arrays (MBR + Key)
}

// ArrivalQueue is the paper's MBR_queue: a priority queue of candidate
// nodes sorted by ascending arrival time on the broadcast channel. Ordering
// by arrival rather than by distance is what makes the traversal
// backtrack-free on the linear medium.
//
// The representation is a flat array kept sorted by DESCENDING
// (Arrival, Key), so the minimum sits at the tail: Peek and Pop are one
// load (no sift, no re-heapify). Push appends a new minimum at the tail
// with one comparison; any other candidate is placed by a binary search
// and a memmove of pointer-free 16-byte records. The searches push a
// node's children in reverse entry order, so on a preorder schedule every
// push is a tail append; a re-filed fault or a distributed index's
// replicated pages take the binary search. Candidate keys (Arrival, Key)
// are a strict total order (one page per slot per channel), so the array
// layout, and the pop sequence with every downstream metric, depend only
// on the queued set, never on the push order. Reset keeps the backing
// storage, making the queue reusable across queries without allocation.
type ArrivalQueue struct {
	h []Candidate // sorted by descending (Arrival, Key); minimum at the tail
}

// candLess orders candidates by ascending arrival time. Arrival ties
// cannot happen within one channel (one page per slot); break
// deterministically anyway for cross-channel stability. Key is the
// node's preorder ID, so the order is the same as the pointer-walking
// (Arrival, Node.ID) order it replaced.
func candLess(a, b Candidate) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.Key < b.Key
}

// Len returns the number of queued candidates.
func (q *ArrivalQueue) Len() int { return len(q.h) }

// Reset empties the queue, retaining the backing storage for reuse.
// Candidates are pointer-free, so the stale region needs no clearing.
func (q *ArrivalQueue) Reset() {
	q.h = q.h[:0]
}

// Push enqueues a candidate. A new minimum is appended at the tail;
// otherwise binary-search the descending array for the insertion point
// (elements before it sort after c) and shift the suffix down by one.
func (q *ArrivalQueue) Push(c Candidate) {
	h := q.h
	if n := len(h); n == 0 || candLess(c, h[n-1]) {
		q.h = append(h, c)
		return
	}
	lo, hi := 0, len(h)-1 // c sorts after the tail
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if candLess(h[mid], c) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h = append(h, Candidate{})
	copy(h[lo+1:], h[lo:])
	h[lo] = c
	q.h = h
}

// Peek returns the earliest-arriving candidate without removing it.
// It must not be called on an empty queue.
func (q *ArrivalQueue) Peek() Candidate { return q.h[len(q.h)-1] }

// Pop removes and returns the earliest-arriving candidate.
// It must not be called on an empty queue.
func (q *ArrivalQueue) Pop() Candidate {
	n := len(q.h) - 1
	c := q.h[n]
	q.h = q.h[:n]
	return c
}

// At returns the i-th candidate in internal (unspecified) order,
// 0 <= i < Len, for Hybrid-NN's allocation-free queue scans.
func (q *ArrivalQueue) At(i int) Candidate { return q.h[i] }
