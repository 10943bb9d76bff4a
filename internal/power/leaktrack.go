package power

import "math"

// leakRefreshInterval is how many incremental updates a LeakageTracker
// performs before recomputing the exponential exactly, bounding the
// accumulated truncation error of the polynomial updates.
const leakRefreshInterval = 32

// leakMaxDelta is the largest |LeakBeta*(T - lastT)| the tracker will bridge
// with the cubic expansion; larger temperature jumps (e.g. after a Reset)
// trigger an exact recomputation instead.
const leakMaxDelta = 0.02

// LeakageTracker evaluates Model.LeakagePower incrementally for a
// slowly-varying temperature sequence, as produced by a fixed-step thermal
// simulation. math.Exp dominates the simulation hot loop when called once
// per core per tick; between consecutive ticks the exponent moves by only
// beta*dT (typically < 1e-3), so the tracker advances the cached exponential
// with a cubic Taylor factor,
//
//	exp(x + d) = exp(x) * (1 + d + d^2/2 + d^3/6) + O(d^4),
//
// and recomputes exactly every leakRefreshInterval calls (or whenever the
// temperature jumps by more than leakMaxDelta/beta). With |d| <= 0.02 the
// per-step relative truncation error is below 7e-9 and the worst-case
// accumulated error between refreshes below ~2e-7 — orders of magnitude
// under the power model's own fidelity. The update sequence is a fixed chain
// of float64 operations, so runs remain bit-reproducible.
//
// The zero value is not usable; construct with NewLeakageTracker. A tracker
// is not safe for concurrent use.
type LeakageTracker struct {
	m      Model
	factor float64 // exp(LeakBeta*(temp - LeakTrefC)) for the last temp seen
	temp   float64 // temperature the cached factor corresponds to
	left   int     // incremental updates remaining before an exact refresh
}

// NewLeakageTracker returns a tracker for the model's leakage exponential,
// primed for an exact evaluation on the first call.
func NewLeakageTracker(m Model) LeakageTracker {
	return LeakageTracker{m: m}
}

// Power returns the leakage power in watts at the given level and core
// temperature (degrees Celsius), matching Model.LeakagePower to within the
// tracker's documented tolerance.
func (tr *LeakageTracker) Power(l Level, tempC float64) float64 {
	if w, ok := tr.Advance(l, tempC); ok {
		return w
	}
	return tr.refresh(l, tempC)
}

// Advance is Power's incremental path, small enough to inline into a
// per-core loop: it advances the cached exponential to tempC and returns the
// leakage power at level l, (V·I0)·factor. When an exact refresh is due
// instead (every leakRefreshInterval calls, or a step beyond leakMaxDelta)
// it returns ok = false and leaves the tracker unchanged; the caller then
// calls Power.
func (tr *LeakageTracker) Advance(l Level, tempC float64) (w float64, ok bool) {
	d := tr.m.LeakBeta * (tempC - tr.temp)
	if tr.left <= 0 || d > leakMaxDelta || d < -leakMaxDelta {
		return 0, false
	}
	tr.factor *= 1 + d*(1+d*(0.5+d*(1.0/6)))
	tr.temp = tempC
	tr.left--
	return l.VoltageV * tr.m.LeakI0 * tr.factor, true
}

// refresh recomputes the exponential exactly: Power's path when Advance
// declines.
func (tr *LeakageTracker) refresh(l Level, tempC float64) float64 {
	tr.factor = math.Exp(tr.m.LeakBeta * (tempC - tr.m.LeakTrefC))
	tr.left = leakRefreshInterval - 1
	tr.temp = tempC
	return l.VoltageV * tr.m.LeakI0 * tr.factor
}

// Reset discards the cached exponential so the next call evaluates exactly
// (use after discontinuous temperature changes, e.g. a platform reset).
func (tr *LeakageTracker) Reset() {
	tr.left = 0
	tr.temp = 0
	tr.factor = 0
}
