package obs

// Ring is a fixed-capacity buffer of the most recent values, the one
// incident ring the observability surfaces share (blocking forensics,
// the span tracer's shards). Push is O(1): once the ring is full it
// overwrites the oldest slot in place. A Ring is not safe for
// concurrent use; its owners already hold a lock of their own.
type Ring[T any] struct {
	buf  []T
	cap  int
	next int // once full, the oldest slot and the next one Push writes
}

// NewRing returns an empty ring holding at most capacity values
// (capacity must be positive). Slots are allocated as values arrive.
func NewRing[T any](capacity int) *Ring[T] {
	return &Ring[T]{cap: capacity}
}

// Push adds v, dropping the oldest value once the ring is full.
func (r *Ring[T]) Push(v T) {
	if len(r.buf) < r.cap {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	if r.next++; r.next == r.cap {
		r.next = 0
	}
}

// Len reports how many values the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// AppendTo appends the held values to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	dst = append(dst, r.buf[r.next:]...)
	return append(dst, r.buf[:r.next]...)
}
