package sim

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/telemetry"
)

// runGuard is the per-run anomaly detector: at every oracle sample it checks
// the thermal state for non-finite values and for thermal runaway past the
// configured ceiling, and after the run it checks the derived metrics. Each
// anomaly kind trips at most once per run (the first occurrence carries the
// diagnostic value; repeating it every 0.25 s sample would drown the flight
// recorder).
type runGuard struct {
	sink        telemetry.AnomalySink
	cell        string
	ceilingC    float64
	trippedTemp bool
	trippedNum  bool
}

// newRunGuard returns nil when no sink is configured, so the sampling loop
// pays a single nil check when detection is off.
func newRunGuard(cfg RunConfig, cell string) *runGuard {
	if cfg.Anomalies == nil {
		return nil
	}
	return &runGuard{sink: cfg.Anomalies, cell: cell, ceilingC: cfg.TempCeilingC}
}

func (g *runGuard) sample(timeS float64, temps []float64) {
	for core, tc := range temps {
		if math.IsNaN(tc) || math.IsInf(tc, 0) {
			if !g.trippedNum {
				g.trippedNum = true
				g.sink.Trip(telemetry.Anomaly{
					Kind: telemetry.AnomalyNumeric, Cell: g.cell,
					Detail: fmt.Sprintf("non-finite temperature %g on core %d", tc, core),
					TimeS:  timeS, Core: core,
				})
			}
			continue
		}
		if g.ceilingC > 0 && tc > g.ceilingC && !g.trippedTemp {
			g.trippedTemp = true
			g.sink.Trip(telemetry.Anomaly{
				Kind: telemetry.AnomalyThermalRunaway, Cell: g.cell,
				Detail: fmt.Sprintf("core %d at %.1f C exceeded ceiling %.1f C", core, tc, g.ceilingC),
				TimeS:  timeS, TempC: tc, Core: core,
			})
		}
	}
}

// finals checks the derived reliability metrics: NaN there means the rainflow
// or aging math went numerically wrong even if every raw sample looked sane.
// (Inf is legal — a trace with no thermal cycles has infinite cycling MTTF.)
func (g *runGuard) finals(res *Result) {
	if g.trippedNum {
		return
	}
	for name, v := range map[string]float64{
		"avg_temp_c":      res.AvgTempC,
		"peak_temp_c":     res.PeakTempC,
		"cycling_mttf_y":  res.CyclingMTTF,
		"aging_mttf_y":    res.AgingMTTF,
		"combined_mttf_y": res.CombinedMTTF,
	} {
		if math.IsNaN(v) {
			g.trippedNum = true
			g.sink.Trip(telemetry.Anomaly{
				Kind: telemetry.AnomalyNumeric, Cell: g.cell,
				Detail: fmt.Sprintf("NaN in derived metric %s", name),
				TimeS:  res.ExecTimeS,
			})
			return
		}
	}
}

// decisionFeed returns the hook a DecisionReporter reports each epoch's
// decision event to, or nil when tr is nil. The event becomes an "epoch N"
// span under runSpan that covers the wall time since the previous decision,
// or since the feed was built.
func decisionFeed(tr *telemetry.Tracer, runSpan telemetry.SpanID) func(telemetry.DecisionEvent) {
	if tr == nil {
		return nil
	}
	wallUS := tr.Now()
	return func(ev telemetry.DecisionEvent) {
		now := tr.Now()
		tr.Record(runSpan, telemetry.KindEpoch, "epoch "+strconv.Itoa(ev.Epoch),
			wallUS, now-wallUS, ev.SpanAttrs()...)
		wallUS = now
	}
}

// windowAgg folds the oracle samples of one run into fixed simulated-time
// windows and emits one window span per window: the coarse thermal timeline a
// human scrubs through in Perfetto (per-core mean temperature and power, the
// window's peak, and a cheap thermal-activity proxy counting per-core
// heating/cooling direction flips).
type windowAgg struct {
	tracer  *telemetry.Tracer
	parent  telemetry.SpanID
	windowS float64

	index   int
	startS  float64
	wallUS  int64
	samples int
	sumT    []float64
	sumP    []float64
	peakC   float64
	prevT   []float64
	rising  []bool
	flips   int
}

// traceWindowS is the simulated-time width of one window span, seconds: the
// aggregation granularity of the thermal timeline.
const traceWindowS = 10

// windowCoreKeys holds each core's window-span attribute keys,
// core<i>_mean_c and core<i>_mean_w, built once for the scheduler's limit of
// 32 cores rather than formatted for every window.
var windowCoreKeys = func() (keys [32][2]string) {
	for i := range keys {
		core := "core" + strconv.Itoa(i)
		keys[i] = [2]string{core + "_mean_c", core + "_mean_w"}
	}
	return keys
}()

// newWindowAgg returns nil when tracing is off.
func newWindowAgg(cfg RunConfig, parent telemetry.SpanID) *windowAgg {
	if cfg.Tracer == nil {
		return nil
	}
	return &windowAgg{tracer: cfg.Tracer, parent: parent, windowS: traceWindowS}
}

func (w *windowAgg) sample(timeS float64, temps, power []float64) {
	if w.samples > 0 && timeS >= w.startS+w.windowS {
		w.emit(timeS)
	}
	if w.samples == 0 {
		w.startS = timeS
		w.wallUS = w.tracer.Now()
		if w.sumT == nil {
			w.sumT = make([]float64, len(temps))
			w.sumP = make([]float64, len(power))
			w.prevT = make([]float64, len(temps))
			w.rising = make([]bool, len(temps))
		} else {
			for i := range w.sumT {
				w.sumT[i], w.sumP[i] = 0, 0
			}
		}
		w.peakC = math.Inf(-1)
		w.flips = 0
	}
	for i, tc := range temps {
		w.sumT[i] += tc
		if tc > w.peakC {
			w.peakC = tc
		}
		if w.samples > 0 {
			rising := tc > w.prevT[i]
			if tc != w.prevT[i] {
				if rising != w.rising[i] && w.samples > 1 {
					w.flips++
				}
				w.rising[i] = rising
			}
		}
		w.prevT[i] = tc
	}
	for i, pw := range power {
		w.sumP[i] += pw
	}
	w.samples++
}

// flush emits the trailing partial window at end of run.
func (w *windowAgg) flush(endS float64) {
	if w.samples > 0 {
		w.emit(endS)
	}
}

func (w *windowAgg) emit(endS float64) {
	w.index++
	n := float64(w.samples)
	attrs := make([]telemetry.Attr, 0, 2*len(w.sumT)+5)
	attrs = append(attrs,
		telemetry.Num("time_s", w.startS),
		telemetry.Num("end_s", endS),
		telemetry.Num("samples", n),
		telemetry.Num("peak_c", w.peakC),
		telemetry.Num("temp_flips", float64(w.flips)))
	for i := range w.sumT {
		keys := &windowCoreKeys[i]
		attrs = append(attrs,
			telemetry.Num(keys[0], w.sumT[i]/n),
			telemetry.Num(keys[1], w.sumP[i]/n))
	}
	w.tracer.Record(w.parent, telemetry.KindWindow,
		"window "+strconv.Itoa(w.index),
		w.wallUS, w.tracer.Now()-w.wallUS, attrs...)
	w.samples = 0
}
