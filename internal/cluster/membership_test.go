package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

// acquired is the outcome of a background Acquire.
type acquired struct {
	id  string
	err error
}

// acquireAsync runs Acquire in the background and delivers its outcome.
func acquireAsync(ctx context.Context, m *Membership, avoid string) <-chan acquired {
	ch := make(chan acquired, 1)
	go func() {
		id, _, _, err := m.Acquire(ctx, avoid)
		ch <- acquired{id, err}
	}()
	return ch
}

// mustBlock fails if the pending Acquire returns within a short grace period.
func mustBlock(t *testing.T, ch <-chan acquired, why string) {
	t.Helper()
	select {
	case got := <-ch:
		t.Fatalf("Acquire returned %+v while %s", got, why)
	case <-time.After(50 * time.Millisecond):
	}
}

// mustReturn waits for the pending Acquire and returns its outcome.
func mustReturn(t *testing.T, ch <-chan acquired, why string) acquired {
	t.Helper()
	select {
	case got := <-ch:
		return got
	case <-time.After(5 * time.Second):
		t.Fatalf("Acquire still blocked after %s", why)
		return acquired{}
	}
}

func register(t *testing.T, m *Membership, id string, capacity int) {
	t.Helper()
	if err := m.Register(id, "http://"+id, capacity); err != nil {
		t.Fatal(err)
	}
}

func mustAcquire(t *testing.T, m *Membership, avoid string) string {
	t.Helper()
	id, _, _, err := m.Acquire(context.Background(), avoid)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// TestAcquireRespectsCapacity: Acquire never claims more slots than a worker
// has, blocks while every slot is taken, wakes on a Release or a Register,
// and returns the context's error when cancelled.
func TestAcquireRespectsCapacity(t *testing.T) {
	m := NewMembership()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pending := acquireAsync(ctx, m, "")
	mustBlock(t, pending, "no worker is registered")
	register(t, m, "w0", 2)
	if got := mustReturn(t, pending, "a Register"); got.err != nil || got.id != "w0" {
		t.Fatalf("Acquire after Register = %+v, want w0", got)
	}
	if id := mustAcquire(t, m, ""); id != "w0" {
		t.Fatalf("second slot went to %q, want w0", id)
	}

	pending = acquireAsync(ctx, m, "")
	mustBlock(t, pending, "w0's 2 slots are taken")
	if st := m.Snapshot(); st[0].Inflight != 2 {
		t.Fatalf("w0 inflight %d, want its capacity 2", st[0].Inflight)
	}
	m.Release("w0", false)
	if got := mustReturn(t, pending, "a Release"); got.err != nil || got.id != "w0" {
		t.Fatalf("Acquire after Release = %+v, want w0", got)
	}

	pending = acquireAsync(ctx, m, "")
	mustBlock(t, pending, "w0 is full again")
	register(t, m, "w1", 1)
	if got := mustReturn(t, pending, "a second worker registered"); got.err != nil || got.id != "w1" {
		t.Fatalf("Acquire after w1 registered = %+v, want w1", got)
	}

	pending = acquireAsync(ctx, m, "")
	mustBlock(t, pending, "every slot is taken")
	cancel()
	if got := mustReturn(t, pending, "cancel"); !errors.Is(got.err, context.Canceled) || got.id != "" {
		t.Fatalf("cancelled Acquire = %+v, want context.Canceled", got)
	}
	for _, w := range m.Snapshot() {
		if w.Inflight > w.Capacity {
			t.Errorf("%s inflight %d exceeds capacity %d", w.ID, w.Inflight, w.Capacity)
		}
	}
}

// TestAcquireBalancesEqualWorkers: three equal workers, loaded by 300 rounds
// of acquiring one to three slots and releasing them, end within one
// lifetime assignment of each other.
func TestAcquireBalancesEqualWorkers(t *testing.T) {
	m := NewMembership()
	for _, id := range []string{"w0", "w1", "w2"} {
		register(t, m, id, 2)
	}
	for round := 0; round < 300; round++ {
		held := make([]string, round%3+1)
		for i := range held {
			held[i] = mustAcquire(t, m, "")
		}
		for _, id := range held {
			m.Release(id, false)
		}
	}
	st := m.Snapshot()
	lo, hi := st[0].Assigned, st[0].Assigned
	var total int64
	for _, w := range st {
		lo, hi = min(lo, w.Assigned), max(hi, w.Assigned)
		total += w.Assigned
	}
	if total != 600 {
		t.Fatalf("%d lifetime assignments, want 600", total)
	}
	if hi-lo > 1 {
		t.Errorf("lifetime assignments spread %d..%d over equal workers: %+v", lo, hi, st)
	}
}

// TestAcquireAvoid: the avoided worker is skipped while another has a free
// slot, even when it is otherwise the better placement, and taken when it is
// the only one left with a free slot.
func TestAcquireAvoid(t *testing.T) {
	m := NewMembership()
	register(t, m, "w0", 1)
	register(t, m, "w1", 1)
	// w0 wins every tie-break on its own (same load, same history, lower
	// id), so only avoid can send the first slot to w1.
	if id := mustAcquire(t, m, "w0"); id != "w1" {
		t.Fatalf("Acquire avoiding w0 took %q, want w1", id)
	}
	if id := mustAcquire(t, m, "w0"); id != "w0" {
		t.Fatalf("Acquire with only w0 free took %q, want w0", id)
	}
	m.Release("w0", false)
	m.Release("w1", false)
	// Unknown or empty avoid ids change nothing.
	if id := mustAcquire(t, m, "gone"); id != "w0" {
		t.Fatalf("Acquire avoiding an unknown id took %q, want w0 (fewest assignments tie, lowest id)", id)
	}
}

// TestAcquireSkipsSuspect: a worker released as unreachable is passed over
// while any live worker is not suspect, even a full one, until its next
// heartbeat clears the mark; once every worker is suspect, any free slot is
// taken.
func TestAcquireSkipsSuspect(t *testing.T) {
	m := NewMembership()
	register(t, m, "w0", 1)
	register(t, m, "w1", 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if id := mustAcquire(t, m, ""); id != "w0" {
		t.Fatalf("first slot went to %q, want w0", id)
	}
	m.Release("w0", true)
	if id := mustAcquire(t, m, ""); id != "w1" {
		t.Fatalf("Acquire after w0 was unreachable took %q, want w1", id)
	}
	pending := acquireAsync(ctx, m, "")
	mustBlock(t, pending, "w1 is full and w0 is suspect")
	if err := m.Heartbeat("w0", 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := mustReturn(t, pending, "w0's heartbeat"); got.err != nil || got.id != "w0" {
		t.Fatalf("Acquire after w0's heartbeat = %+v, want w0", got)
	}
	m.Release("w0", true)
	m.Release("w1", true)
	// Both suspect and idle: w1 wins on fewer lifetime assignments.
	if id := mustAcquire(t, m, ""); id != "w1" {
		t.Fatalf("Acquire with every worker suspect took %q, want w1", id)
	}
}
