package power

import (
	"math"
	"testing"
)

// TestLeakageTrackerMatchesExact drives the tracker through a realistic
// slowly-varying temperature trajectory and checks every sample against the
// exact Model.LeakagePower.
func TestLeakageTrackerMatchesExact(t *testing.T) {
	m := DefaultModel()
	l := DefaultLevels()[4]
	tr := NewLeakageTracker(m)
	temp := 35.0
	for i := 0; i < 20000; i++ {
		// Heating/cooling ramps with small per-step deltas, like a 10 ms
		// thermal tick.
		temp += 0.05 * math.Sin(float64(i)/300)
		got := tr.Power(l, temp)
		want := m.LeakagePower(l, temp)
		if rel := math.Abs(got-want) / want; rel > 1e-6 {
			t.Fatalf("step %d temp %.3f: tracker %.12g vs exact %.12g (rel err %.2e)",
				i, temp, got, want, rel)
		}
	}
}

// TestLeakageTrackerLargeJump checks that a discontinuous temperature change
// falls back to an exact evaluation instead of extrapolating.
func TestLeakageTrackerLargeJump(t *testing.T) {
	m := DefaultModel()
	l := DefaultLevels()[0]
	tr := NewLeakageTracker(m)
	for _, temp := range []float64{40, 90, 31, 75.5, 30} {
		got := tr.Power(l, temp)
		want := m.LeakagePower(l, temp)
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("jump to %.1f: tracker %.12g vs exact %.12g", temp, got, want)
		}
	}
}

// TestLeakageTrackerReset checks Reset forces the next call exact.
func TestLeakageTrackerReset(t *testing.T) {
	m := DefaultModel()
	l := DefaultLevels()[2]
	tr := NewLeakageTracker(m)
	for i := 0; i < 10; i++ {
		tr.Power(l, 50+float64(i)*0.1)
	}
	tr.Reset()
	got := tr.Power(l, 51)
	want := m.LeakagePower(l, 51)
	if got != want {
		t.Fatalf("after Reset: tracker %.17g vs exact %.17g", got, want)
	}
}

// TestLeakageTrackerAdvanceRefreshRule pins the refresh rule Advance
// enforces: the first call and every 32nd call after a refresh are exact, as
// is a step beyond leakMaxDelta, and a declined Advance leaves the tracker as it
// was, so the Power that follows gives the same bits as a single Power call.
func TestLeakageTrackerAdvanceRefreshRule(t *testing.T) {
	m := DefaultModel()
	l := DefaultLevels()[3]
	tr, ref := NewLeakageTracker(m), NewLeakageTracker(m)
	temp, sinceRefresh := 50.0, leakRefreshInterval
	for call := 0; call < 120; call++ {
		temp += 0.01
		jump := call == 70
		if jump {
			temp += 1.5 * leakMaxDelta / m.LeakBeta // past the expansion's range
		}
		before := tr
		w, ok := tr.Advance(l, temp)
		if due := sinceRefresh == leakRefreshInterval || jump; ok == due {
			t.Fatalf("call %d: Advance ok = %v, refresh due = %v", call, ok, due)
		}
		sinceRefresh++
		if !ok {
			sinceRefresh = 1
			if tr != before {
				t.Fatalf("call %d: declined Advance changed the tracker", call)
			}
			w = tr.Power(l, temp)
		}
		if want := ref.Power(l, temp); w != want {
			t.Fatalf("call %d: Advance/Power %.17g, Power %.17g", call, w, want)
		}
	}
}
