package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func simplePhases() []Phase {
	return []Phase{
		{Kind: Burst, Work: 2, Activity: 0.9},
		{Kind: Sync, Work: 1, Activity: 0.1},
		{Kind: Burst, Work: 3, Activity: 0.9},
		{Kind: Sync, Work: 0.5, Activity: 0.1},
	}
}

func TestThreadLifecycle(t *testing.T) {
	th := NewThread(0, "test", simplePhases())
	if th.Done() || !th.Runnable() || th.AtBarrier() {
		t.Fatal("fresh thread should be runnable")
	}
	if th.Activity() != 0.9 {
		t.Errorf("Activity = %g, want 0.9 (burst)", th.Activity())
	}
	if th.TotalWork() != 6.5 {
		t.Errorf("TotalWork = %g, want 6.5", th.TotalWork())
	}
	// Advance through the first burst into the sync phase.
	used := th.Advance(2.5)
	if used != 2.5 {
		t.Errorf("Advance consumed %g, want 2.5", used)
	}
	if th.PhaseIndex() != 1 || th.Activity() != 0.1 {
		t.Errorf("should be in sync phase: idx=%d act=%g", th.PhaseIndex(), th.Activity())
	}
	// Finish the sync phase: must block at the barrier, not roll over.
	used = th.Advance(10)
	if math.Abs(used-0.5) > 1e-12 {
		t.Errorf("Advance consumed %g, want 0.5 (stops at barrier)", used)
	}
	if !th.AtBarrier() || th.Runnable() {
		t.Error("thread should be blocked at barrier")
	}
	if th.Activity() != 0.02 {
		t.Errorf("blocked activity = %g, want 0.02", th.Activity())
	}
	if th.Advance(5) != 0 {
		t.Error("blocked thread must not advance")
	}
	th.ReleaseBarrier()
	if th.PhaseIndex() != 2 || !th.Runnable() {
		t.Error("release should enter next phase")
	}
	// Finish everything.
	th.Advance(3)
	th.Advance(0.5)
	th.ReleaseBarrier()
	if !th.Done() {
		t.Error("thread should be done")
	}
	if th.Advance(1) != 0 {
		t.Error("done thread must not advance")
	}
	if math.Abs(th.CompletedWork()-6.5) > 1e-12 {
		t.Errorf("CompletedWork = %g, want 6.5", th.CompletedWork())
	}
}

func TestThreadReleaseBarrierWhenNotWaiting(t *testing.T) {
	th := NewThread(0, "test", simplePhases())
	th.ReleaseBarrier() // no-op
	if th.PhaseIndex() != 0 {
		t.Error("ReleaseBarrier on running thread must be a no-op")
	}
}

func TestThreadReset(t *testing.T) {
	th := NewThread(0, "test", simplePhases())
	th.Advance(2.5)
	th.Reset()
	if th.PhaseIndex() != 0 || th.CompletedWork() != 0 || !th.Runnable() {
		t.Error("Reset did not restore initial state")
	}
}

// Property: total consumed work never exceeds the script total, regardless of
// the advance pattern.
func TestThreadWorkConservation(t *testing.T) {
	f := func(steps []uint8) bool {
		th := NewThread(0, "p", simplePhases())
		for _, s := range steps {
			th.Advance(float64(s) / 16)
			if th.AtBarrier() {
				th.ReleaseBarrier()
			}
		}
		return th.CompletedWork() <= th.TotalWork()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApplicationBarrier(t *testing.T) {
	t1 := NewThread(0, "app", simplePhases())
	t2 := NewThread(1, "app", simplePhases())
	app := NewApplication("app", []*Thread{t1, t2}, 0)

	// Thread 1 reaches the barrier, thread 2 still computing.
	t1.Advance(3)
	app.Step()
	if !t1.AtBarrier() {
		t.Fatal("t1 should wait at barrier while t2 computes")
	}
	// Thread 2 reaches it too; Step releases both.
	t2.Advance(3)
	app.Step()
	if t1.AtBarrier() || t2.AtBarrier() {
		t.Error("barrier should release once all threads arrive")
	}
	if t1.PhaseIndex() != 2 || t2.PhaseIndex() != 2 {
		t.Error("both threads should enter phase 2")
	}
}

func TestApplicationBarrierIgnoresFinishedThreads(t *testing.T) {
	short := []Phase{{Kind: Burst, Work: 1, Activity: 0.9}}
	long := []Phase{{Kind: Burst, Work: 1, Activity: 0.9}}
	// Same phase count: both single-burst, but make one finish first by
	// advancing it more. Use a 2-phase script for the slow one instead.
	_ = long
	t1 := NewThread(0, "app", short)
	t2 := NewThread(1, "app", short)
	app := NewApplication("app", []*Thread{t1, t2}, 0)
	t1.Advance(1)
	if !t1.Done() {
		t.Fatal("t1 should be done")
	}
	app.Step() // must not panic or deadlock with a finished thread
	t2.Advance(1)
	app.Step()
	if !app.Done() {
		t.Error("application should be done")
	}
}

func TestApplicationAccounting(t *testing.T) {
	t1 := NewThread(0, "app", simplePhases())
	t2 := NewThread(1, "app", simplePhases())
	app := NewApplication("app", []*Thread{t1, t2}, 4.5)
	if app.TotalWork() != 13 {
		t.Errorf("TotalWork = %g, want 13", app.TotalWork())
	}
	t1.Advance(2)
	if app.CompletedWork() != 2 {
		t.Errorf("CompletedWork = %g, want 2", app.CompletedWork())
	}
	if app.PerfConstraint != 4.5 {
		t.Errorf("PerfConstraint = %g", app.PerfConstraint)
	}
	app.Reset()
	if app.CompletedWork() != 0 {
		t.Error("Reset did not clear work")
	}
}

func TestNewApplicationValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched phase counts")
		}
	}()
	a := NewThread(0, "x", simplePhases())
	b := NewThread(1, "x", simplePhases()[:2])
	NewApplication("x", []*Thread{a, b}, 0)
}

func TestNewApplicationEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty thread set")
		}
	}()
	NewApplication("x", nil, 0)
}

// Drive an application to completion with a simple executor and verify the
// barrier structure forces lockstep iterations.
func runToCompletion(t *testing.T, w Workload, maxSteps int) int {
	t.Helper()
	for step := 0; step < maxSteps; step++ {
		if w.Done() {
			return step
		}
		for _, th := range w.Threads() {
			th.Advance(1.0)
		}
		w.Step()
	}
	t.Fatalf("%s did not finish in %d steps", w.Name(), maxSteps)
	return 0
}

func TestGeneratedAppsComplete(t *testing.T) {
	for _, name := range AppNames() {
		for _, ds := range []DataSet{Set1, Set2, Set3} {
			app, err := ByName(name, ds)
			if err != nil {
				t.Fatal(err)
			}
			runToCompletion(t, app, 500000)
			if math.Abs(app.CompletedWork()-app.TotalWork()) > 1e-6 {
				t.Errorf("%s/%v: completed %g != total %g", name, ds, app.CompletedWork(), app.TotalWork())
			}
		}
	}
}

func TestGeneratedAppsDeterministic(t *testing.T) {
	a := Tachyon(Set1)
	b := Tachyon(Set1)
	if a.TotalWork() != b.TotalWork() {
		t.Error("same app+dataset must generate identical work")
	}
	c := Tachyon(Set2)
	if a.TotalWork() == c.TotalWork() {
		t.Error("different data sets should differ")
	}
}

func TestAppCharacteristics(t *testing.T) {
	// The paper's Section 3: mpeg's threads are strongly dependent (barrier
	// waits dominate -> cycling) while tachyon's run nearly independently at
	// high activity (-> high sustained temperature). In the generators that
	// shows up as (a) per-thread work imbalance and (b) burst activity.
	imbalance := func(a *Application) float64 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, th := range a.Threads() {
			w := th.TotalWork()
			lo = math.Min(lo, w)
			hi = math.Max(hi, w)
		}
		return hi / lo
	}
	activity := func(a *Application) float64 {
		var sum, n float64
		for _, th := range a.Threads() {
			for _, p := range th.phases {
				if p.Kind == Burst {
					sum += p.Activity
					n++
				}
			}
		}
		return sum / n
	}
	ta, md := Tachyon(Set1), MPEGDec(Set1)
	if ti, mi := imbalance(ta), imbalance(md); ti >= mi {
		t.Errorf("thread imbalance: tachyon %.2f >= mpeg_dec %.2f; mpeg must be more dependent", ti, mi)
	}
	if imbalance(md) < 2 {
		t.Errorf("mpeg_dec imbalance %.2f too low; barrier waits must dominate", imbalance(md))
	}
	if taA, mdA := activity(ta), activity(md); taA <= mdA {
		t.Errorf("burst activity: tachyon %.2f <= mpeg_dec %.2f; tachyon must run hotter", taA, mdA)
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("quake", Set1); err == nil {
		t.Error("expected error for unknown app")
	}
}

func TestByNameAliases(t *testing.T) {
	for _, alias := range []string{"mpegdec", "mpeg_dec"} {
		app, err := ByName(alias, Set1)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if app.Name() != "mpeg_dec" {
			t.Errorf("%s resolved to %s", alias, app.Name())
		}
	}
}

func TestSequence(t *testing.T) {
	mk := func(name string) *Application {
		return NewApplication(name, []*Thread{
			NewThread(0, name, []Phase{{Kind: Burst, Work: 2, Activity: 0.9}}),
		}, 0)
	}
	a, b := mk("a"), mk("b")
	var switched []string
	seq := NewSequence(a, b)
	seq.SwitchNotify = func(next *Application) { switched = append(switched, next.Name()) }
	if seq.Name() != "a-b" {
		t.Errorf("Name = %q, want a-b", seq.Name())
	}
	if seq.Current() != a {
		t.Error("should start with app a")
	}
	if seq.TotalWork() != 4 {
		t.Errorf("TotalWork = %g, want 4", seq.TotalWork())
	}
	seq.Threads()[0].Advance(2)
	seq.Step()
	if seq.Current() != b {
		t.Error("should have switched to app b")
	}
	if len(switched) != 1 || switched[0] != "b" {
		t.Errorf("SwitchNotify calls = %v, want [b]", switched)
	}
	if seq.CompletedWork() != 2 {
		t.Errorf("CompletedWork = %g, want 2", seq.CompletedWork())
	}
	seq.Threads()[0].Advance(2)
	seq.Step()
	if !seq.Done() {
		t.Error("sequence should be done")
	}
	if seq.CompletedWork() != 4 {
		t.Errorf("CompletedWork = %g, want 4", seq.CompletedWork())
	}
	seq.Step() // extra steps are harmless
	seq.Reset()
	if seq.Done() || seq.CompletedWork() != 0 || seq.Current().Name() != "a" {
		t.Error("Reset did not rewind sequence")
	}
}

func TestSequenceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for empty sequence")
		}
	}()
	NewSequence()
}

func TestPhaseKindString(t *testing.T) {
	if Burst.String() != "burst" || Sync.String() != "sync" {
		t.Error("PhaseKind strings wrong")
	}
	if PhaseKind(7).String() != "PhaseKind(7)" {
		t.Error("unknown PhaseKind string wrong")
	}
}

func TestDataSetString(t *testing.T) {
	if Set1.String() != "set1" || Set3.String() != "set3" {
		t.Error("DataSet strings wrong")
	}
}

func TestSpecValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for zero threads")
		}
	}()
	Spec{Name: "bad", NumThreads: 0, Iterations: 1}.Generate()
}

func BenchmarkGenerateTachyon(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Tachyon(Set1)
	}
}

func TestThreadZeroWorkPhases(t *testing.T) {
	// Zero-work phases must be skipped (burst) or block at the barrier
	// (sync) without hanging.
	th := NewThread(0, "z", []Phase{
		{Kind: Burst, Work: 1, Activity: 0.9},
		{Kind: Burst, Work: 0, Activity: 0.9}, // degenerate: skip
		{Kind: Burst, Work: 1, Activity: 0.9},
	})
	th.Advance(1) // finish phase 0; phase 1 has no work -> lands in phase 2
	if th.PhaseIndex() != 2 {
		t.Errorf("PhaseIndex = %d, want 2 (zero-work burst skipped)", th.PhaseIndex())
	}
	th2 := NewThread(0, "z", []Phase{
		{Kind: Burst, Work: 1, Activity: 0.9},
		{Kind: Sync, Work: 0, Activity: 0.1}, // degenerate sync: barrier
		{Kind: Burst, Work: 1, Activity: 0.9},
	})
	th2.Advance(1)
	if !th2.AtBarrier() {
		t.Error("zero-work sync phase should still block at the barrier")
	}
	th2.ReleaseBarrier()
	th2.Advance(1)
	if !th2.Done() {
		t.Error("thread should finish after the barrier release")
	}
}

func TestDataSetFactorClamps(t *testing.T) {
	// Extreme factor products must clamp jitter and imbalance.
	f := dataSetFactors{work: 1, activity: 1, iters: 1, jitter: 100, imbalance: 100}
	sp := f.apply(Spec{Name: "x", NumThreads: 2, Iterations: 1, BurstWork: 1,
		BurstActivity: 0.5, Jitter: 0.3, ThreadImbalance: 0.3})
	if sp.Jitter > 0.5 {
		t.Errorf("jitter %g not clamped to 0.5", sp.Jitter)
	}
	if sp.ThreadImbalance > 0.85 {
		t.Errorf("imbalance %g not clamped to 0.85", sp.ThreadImbalance)
	}
}

// TestStepReportsChanges checks the Workload.Step contract the platform
// relies on to skip Step: a Step that reports false changed nothing, and a
// second Step with no work advanced in between reports false again; the
// thread set changes only in a Step that reports true. The applications
// include consecutive zero-work Sync phases, where a release that reports
// true lands the threads on the next barrier at once.
func TestStepReportsChanges(t *testing.T) {
	chain := func(name string) *Application {
		mk := func(id int) *Thread {
			return NewThread(id, name, []Phase{
				{Kind: Burst, Work: 1 + float64(id), Activity: 0.9},
				{Kind: Sync, Work: 0.5, Activity: 0.2},
				{Kind: Sync, Work: 0, Activity: 0.2},
				{Kind: Sync, Work: 0, Activity: 0.2},
				{Kind: Burst, Work: 2, Activity: 0.9},
			})
		}
		return NewApplication(name, []*Thread{mk(0), mk(1)}, 0)
	}
	phases := func(w Workload) []int {
		var out []int
		for _, th := range w.Threads() {
			out = append(out, th.PhaseIndex())
		}
		return out
	}
	for _, w := range []Workload{
		chain("app"),
		NewSequence(chain("a"), smallApp("b", 3)),
		NewConcurrent(chain("c"), smallApp("d", 5)),
	} {
		changes := 0
		for step := 0; step < 10000 && !w.Done(); step++ {
			for i, th := range w.Threads() {
				th.Advance(0.05 * float64(1+i%3))
			}
			threads, before := w.Threads(), phases(w)
			if w.Step() {
				changes++
				continue
			}
			if !slices.Equal(w.Threads(), threads) || !slices.Equal(phases(w), before) {
				t.Fatalf("%s step %d: a Step that reported false changed the threads or their phases", w.Name(), step)
			}
			if w.Step() {
				t.Fatalf("%s step %d: a second Step reported a change with no work advanced", w.Name(), step)
			}
		}
		if !w.Done() || changes < 3 {
			t.Errorf("%s: done %v after %d reported changes", w.Name(), w.Done(), changes)
		}
	}
}
