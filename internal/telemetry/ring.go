package telemetry

// Ring is a bounded buffer keeping the newest items: once it holds its
// capacity, each Push overwrites the oldest. Its storage grows on demand
// toward the capacity, so an owner that sees few items holds little memory
// however large its bound. Every item ever pushed counts toward Total, which
// is the cursor space of Since.
//
// A Ring takes no lock; its owner serializes access with its own mutex.
type Ring[T any] struct {
	capacity int
	buf      []T
	// oldest indexes the oldest retained item (0 until the ring wraps).
	oldest int
	total  int64
}

// NewRing returns an empty ring keeping the newest capacity items.
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic("telemetry: ring capacity must be positive")
	}
	return Ring[T]{capacity: capacity}
}

// Push appends v, overwriting the oldest item when the ring is full, and
// reports whether it overwrote one.
func (r *Ring[T]) Push(v T) bool {
	r.total++
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.oldest] = v
	r.oldest = (r.oldest + 1) % len(r.buf)
	return true
}

// Len returns the number of retained items.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns how many items were ever pushed, retained or overwritten.
func (r *Ring[T]) Total() int64 { return r.total }

// Items returns a copy of the retained items, oldest first.
func (r *Ring[T]) Items() []T { return r.newest(len(r.buf)) }

// Since returns the items pushed after cursor (a value previously returned
// by Since, or 0 for the beginning), oldest first, plus the new cursor. A
// cursor that fell behind the oldest retained item resyncs there: the
// overwritten items are skipped, so a lagging reader costs no memory.
func (r *Ring[T]) Since(cursor int64) ([]T, int64) {
	if cursor >= r.total {
		return nil, r.total
	}
	return r.newest(int(min(r.total-cursor, int64(len(r.buf))))), r.total
}

// newest copies the newest n retained items, oldest first.
func (r *Ring[T]) newest(n int) []T {
	out := make([]T, 0, n)
	if n == 0 {
		return out
	}
	i := (r.oldest + len(r.buf) - n) % len(r.buf)
	out = append(out, r.buf[i:min(i+n, len(r.buf))]...)
	return append(out, r.buf[:n-len(out)]...)
}
