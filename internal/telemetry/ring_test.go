package telemetry

import (
	"fmt"
	"testing"
)

func TestRing(t *testing.T) {
	seq := func(from, to int) []int {
		var out []int
		for i := from; i <= to; i++ {
			out = append(out, i)
		}
		return out
	}
	cases := []struct {
		name     string
		capacity int
		pushes   int   // pushes the values 1..pushes
		cursor   int64 // the Since argument
		items    []int // Items
		since    []int // Since(cursor)
	}{
		{"empty", 4, 0, 0, nil, nil},
		{"below capacity", 4, 3, 1, seq(1, 3), seq(2, 3)},
		{"exactly full", 4, 4, 0, seq(1, 4), seq(1, 4)},
		{"wraparound", 4, 10, 8, seq(7, 10), seq(9, 10)},
		{"stale cursor resyncs at oldest", 4, 10, 2, seq(7, 10), seq(7, 10)},
		{"cursor at total", 4, 10, 10, seq(7, 10), nil},
		{"newest straddle the wrap point", 3, 8, 6, seq(6, 8), seq(7, 8)},
		{"oldest back at index 0", 3, 9, 0, seq(7, 9), seq(7, 9)},
		{"grows on demand", 1024, 5, 0, seq(1, 5), seq(1, 5)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := NewRing[int](c.capacity)
			for i := 1; i <= c.pushes; i++ {
				if overwrote := r.Push(i); overwrote != (i > c.capacity) {
					t.Errorf("push %d reported overwrite %v", i, overwrote)
				}
			}
			if got := r.Items(); fmt.Sprint(got) != fmt.Sprint(c.items) {
				t.Errorf("Items = %v, want %v", got, c.items)
			}
			got, cursor := r.Since(c.cursor)
			if fmt.Sprint(got) != fmt.Sprint(c.since) || cursor != int64(c.pushes) {
				t.Errorf("Since(%d) = %v, %d; want %v, %d", c.cursor, got, cursor, c.since, c.pushes)
			}
			if r.Len() != len(c.items) || r.Total() != int64(c.pushes) {
				t.Errorf("Len %d Total %d, want %d and %d", r.Len(), r.Total(), len(c.items), c.pushes)
			}
			// Storage follows the items pushed, not the bound.
			if 2*c.pushes < c.capacity && cap(r.buf) >= c.capacity {
				t.Errorf("%d pushes hold storage for %d items (capacity %d)", c.pushes, cap(r.buf), c.capacity)
			}
		})
	}
}
