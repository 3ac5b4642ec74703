package sim

// The pending-event set is a monomorphic 4-ary min-heap on (at, seq),
// replacing the earlier container/heap binary heap (see DESIGN.md §4).
// Heap entries are small pointer-free values: sift operations move
// 24-byte nodes within one slice with no interface dispatch, no `any`
// boxing and no GC write barriers (the Event itself is reached through
// the simulator's arena by index). (at, seq) is a total order — seq is
// unique per scheduling — so firing order is identical to the old heap
// regardless of arity or internal layout.
//
// Cancellation is lazy: Cancel only flips the event's state to
// stateCancelled (an O(1) tombstone). Tombstoned nodes are skipped and
// their events recycled when they surface at pop time; when tombstones
// outnumber live entries the queue is compacted in place and re-heapified
// in O(n). Compaction permutes only the internal array — the comparator's
// total order is unchanged, so determinism is preserved.

// node is one pending-event-set entry. idx addresses the owning
// engine's event arena, keeping the node pointer-free.
type node struct {
	at  float64
	seq uint64
	idx uint32
}

// before reports whether n fires before m: earlier time first, insertion
// order (seq) breaking ties.
func (n node) before(m node) bool {
	if n.at != m.at {
		return n.at < m.at
	}
	return n.seq < m.seq
}

// pushNode inserts a node, sifting it up with the hole technique (one
// write per level instead of a three-assignment swap).
func (s *engine) pushNode(n node) {
	q := append(s.queue, node{})
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !n.before(q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = n
	s.queue = q
	s.tmScheduled.Inc()
	s.tmDepth.Set(float64(len(q)))
}

// popNode removes and returns the minimum node. The caller guarantees
// the queue is non-empty.
func (s *engine) popNode() node {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	if n > 0 {
		siftDown(q, 0, last)
	}
	s.queue = q
	return top
}

// siftDown places v at position i of q, sinking the hole toward the
// smallest of up to four children per level.
func siftDown(q []node, i int, v node) {
	n := len(q)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		hi := c + 4
		if hi > n {
			hi = n
		}
		for j := c + 1; j < hi; j++ {
			if q[j].before(q[m]) {
				m = j
			}
		}
		if !q[m].before(v) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = v
}

// compact removes tombstoned nodes in place, recycling their events, and
// rebuilds the heap bottom-up (Floyd) in O(n).
func (s *engine) compact() {
	q := s.queue
	k := 0
	for _, n := range q {
		e := s.events[n.idx]
		if e.state == stateCancelled {
			s.release(e)
			continue
		}
		q[k] = n
		k++
	}
	q = q[:k]
	for i := (k - 2) >> 2; i >= 0; i-- {
		siftDown(q, i, q[i])
	}
	s.queue = q
	s.tombstones = 0
}
