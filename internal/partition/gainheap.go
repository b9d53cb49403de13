package partition

// gainQueues holds FM's move candidates: one indexed binary max-heap of
// unlocked vertices per side, ordered by (gain desc, id asc). That is a
// strict total order, so the heap top is the vertex a linear scan with
// the same tie-break would pick (fmRefineScan in the tests), however
// the heap happens to be laid out. pos lets a vertex whose gain changed
// be re-sifted in place.
type gainQueues struct {
	gain  []int64    // shared with fmRefine, which updates it
	heap  [2][]int32 // vertices per side, heap-ordered
	pos   []int32    // index of v in its side's heap; -1 once locked
	stash []int32    // heavy vertices skipped by best, pushed back after
}

func newGainQueues(gain []int64) *gainQueues {
	n := len(gain)
	return &gainQueues{
		gain:  gain,
		heap:  [2][]int32{make([]int32, 0, n), make([]int32, 0, n)},
		pos:   make([]int32, n),
		stash: make([]int32, 0, n),
	}
}

// before reports whether a precedes b: higher gain first, then lower id.
func (q *gainQueues) before(a, b int32) bool {
	ga, gb := q.gain[a], q.gain[b]
	return ga > gb || (ga == gb && a < b)
}

// fill queues every vertex on its side and heapifies both heaps.
func (q *gainQueues) fill(side []int8) {
	q.heap[0], q.heap[1] = q.heap[0][:0], q.heap[1][:0]
	for v, s := range side {
		q.pos[v] = int32(len(q.heap[s]))
		q.heap[s] = append(q.heap[s], int32(v))
	}
	for s := range q.heap {
		for i := len(q.heap[s])/2 - 1; i >= 0; i-- {
			q.down(int8(s), i)
		}
	}
}

func (q *gainQueues) swap(h []int32, i, j int) {
	h[i], h[j] = h[j], h[i]
	q.pos[h[i]] = int32(i)
	q.pos[h[j]] = int32(j)
}

func (q *gainQueues) up(s int8, i int) {
	h := q.heap[s]
	for i > 0 {
		p := (i - 1) / 2
		if !q.before(h[i], h[p]) {
			return
		}
		q.swap(h, i, p)
		i = p
	}
}

func (q *gainQueues) down(s int8, i int) {
	h := q.heap[s]
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && q.before(h[r], h[c]) {
			c = r
		}
		if !q.before(h[c], h[i]) {
			return
		}
		q.swap(h, i, c)
		i = c
	}
}

func (q *gainQueues) push(s int8, v int32) {
	q.pos[v] = int32(len(q.heap[s]))
	q.heap[s] = append(q.heap[s], v)
	q.up(s, len(q.heap[s])-1)
}

// remove takes v (queued on side s) out of its heap and marks it locked.
func (q *gainQueues) remove(s int8, v int32) {
	h := q.heap[s]
	i, last := int(q.pos[v]), len(h)-1
	if i != last {
		q.swap(h, i, last)
	}
	q.heap[s] = h[:last]
	q.pos[v] = -1
	if i != last {
		q.fix(s, h[i])
	}
}

// fix restores heap order after v's gain changed.
func (q *gainQueues) fix(s int8, v int32) {
	i := int(q.pos[v])
	q.up(s, i)
	q.down(s, int(q.pos[v]))
}

// locked reports whether v has left the queues (moved this pass).
func (q *gainQueues) locked(v int32) bool { return q.pos[v] < 0 }

// best returns the first vertex in side s's heap order whose weight is
// at most limit, or -1. Heavier vertices ahead of it are popped while
// searching and pushed back afterwards.
func (q *gainQueues) best(s int8, limit int64, vwgt []int32) int32 {
	found := int32(-1)
	for len(q.heap[s]) > 0 {
		v := q.heap[s][0]
		if int64(vwgt[v]) <= limit {
			found = v
			break
		}
		q.remove(s, v)
		q.stash = append(q.stash, v)
	}
	for _, v := range q.stash {
		q.push(s, v)
	}
	q.stash = q.stash[:0]
	return found
}
