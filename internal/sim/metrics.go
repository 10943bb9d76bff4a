package sim

import (
	"sync"

	"repro/internal/telemetry"
)

// Process-wide simulation metrics in the default telemetry registry. Every
// completed Run contributes once, whichever goroutine (sequential runner or
// pool worker) executed it.
var (
	simMetricsOnce sync.Once
	mRuns          *telemetry.Counter
	mSteps         *telemetry.Counter
	mSimSeconds    *telemetry.Counter
	mAppSwitches   *telemetry.Counter
	mCycles        *telemetry.Counter
	mPeakTemp      *telemetry.Histogram
	mAvgTemp       *telemetry.Histogram
)

func initSimMetrics() {
	simMetricsOnce.Do(func() {
		reg := telemetry.Default()
		mRuns = reg.Counter("sim_runs_total", "Completed simulation runs.")
		mSteps = reg.Counter("sim_steps_total", "Platform steps executed across all runs.")
		mSimSeconds = reg.Counter("sim_simulated_seconds_total", "Simulated seconds across all runs (whole seconds).")
		mAppSwitches = reg.Counter("sim_app_switches_total", "Application switches observed by the platform.")
		mCycles = reg.Counter("sim_thermal_cycles_total", "Rainflow thermal cycles (full and half) counted on the warm oracle traces.")
		tempBuckets := telemetry.LinearBuckets(45, 5, 13) // 45..105 C
		mPeakTemp = reg.Histogram("sim_peak_temp_celsius", "Per-run peak temperature over the warm trace.", tempBuckets)
		mAvgTemp = reg.Histogram("sim_avg_temp_celsius", "Per-run average temperature over the warm trace.", tempBuckets)
	})
}
