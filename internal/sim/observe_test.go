package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/governor"
	"repro/internal/telemetry"
)

func TestRunEmitsSpanHierarchy(t *testing.T) {
	cfg := DefaultRunConfig()
	tr := telemetry.NewTracer(0)
	cfg.Tracer = tr
	cfg.TraceParent = tr.Start(0, telemetry.KindCell, "test-cell")

	res, err := Run(cfg, lightApp(), &ProposedPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	tr.End(cfg.TraceParent)

	spans := tr.Snapshot()
	counts := map[string]int{}
	var runSpan telemetry.Span
	byID := map[telemetry.SpanID]telemetry.Span{}
	for _, sp := range spans {
		counts[sp.Kind]++
		byID[sp.ID] = sp
		if sp.Kind == telemetry.KindRun {
			runSpan = sp
		}
	}
	if counts[telemetry.KindRun] != 1 {
		t.Fatalf("run spans = %d, want 1", counts[telemetry.KindRun])
	}
	if counts[telemetry.KindWindow] == 0 {
		t.Error("no window spans emitted")
	}
	if counts[telemetry.KindEpoch] == 0 {
		t.Error("no epoch spans emitted")
	}
	if runSpan.Parent != cfg.TraceParent {
		t.Error("run span not parented under the provided span")
	}
	if str, _, ok := runSpan.Attr("policy"); !ok || str != "proposed" {
		t.Errorf("run policy attr = %q, %v", str, ok)
	}
	if _, num, ok := runSpan.Attr("exec_time_s"); !ok || num != res.ExecTimeS {
		t.Errorf("run exec_time_s attr = %g, want %g", num, res.ExecTimeS)
	}
	if _, num, ok := runSpan.Attr("peak_c"); !ok || num != res.PeakTempC {
		t.Errorf("run peak_c attr = %g, want %g", num, res.PeakTempC)
	}

	// Every window and epoch span must hang off the run span and carry the
	// thermal / decision payloads.
	for _, sp := range spans {
		switch sp.Kind {
		case telemetry.KindWindow:
			if sp.Parent != runSpan.ID {
				t.Fatal("window span not under run span")
			}
			if _, _, ok := sp.Attr("core0_mean_c"); !ok {
				t.Error("window span missing per-core temperature attr")
			}
			if _, _, ok := sp.Attr("core0_mean_w"); !ok {
				t.Error("window span missing per-core power attr")
			}
			if _, n, ok := sp.Attr("peak_c"); !ok || n < 20 || n > 150 {
				t.Errorf("window peak_c implausible: %g", n)
			}
		case telemetry.KindEpoch:
			if sp.Parent != runSpan.ID {
				t.Fatal("epoch span not under run span")
			}
			for _, key := range []string{"state", "action", "alpha", "time_s"} {
				if _, _, ok := sp.Attr(key); !ok {
					t.Errorf("epoch span missing %s attr", key)
				}
			}
			if str, _, ok := sp.Attr("phase"); !ok || str == "" {
				t.Error("epoch span missing phase attr")
			}
			if str, _, ok := sp.Attr("explored"); !ok || (str != "true" && str != "false") {
				t.Errorf("epoch explored attr = %q", str)
			}
		}
	}

	// The whole thing must export as a loadable Chrome trace.
	var sb strings.Builder
	if err := telemetry.WriteChromeTrace(&sb, spans); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if !strings.Contains(sb.String(), `"traceEvents"`) {
		t.Error("chrome export missing traceEvents")
	}
}

// reportCapture wraps the proposed controller and keeps every decision
// event it reports on the way to the run's decision feed.
type reportCapture struct {
	*ProposedPolicy
	events []telemetry.DecisionEvent
}

func (c *reportCapture) ReportDecisions(feed func(telemetry.DecisionEvent)) {
	c.ProposedPolicy.ReportDecisions(func(ev telemetry.DecisionEvent) {
		c.events = append(c.events, ev)
		feed(ev)
	})
}

// TestEpochSpansMatchDecisionEvents: a traced run turns each reported
// decision event into one epoch span, so the i-th epoch span is named after
// the i-th reported event and carries its 11 fields in span order, and
// telemetry.DecisionEvents reads the event back. The one difference is the
// first epoch's missing reward: the span carries the string "NaN", which
// reads back as 0.
func TestEpochSpansMatchDecisionEvents(t *testing.T) {
	cfg := DefaultRunConfig()
	tr := telemetry.NewTracer(0)
	cfg.Tracer = tr
	pol := &reportCapture{ProposedPolicy: &ProposedPolicy{}}
	if _, err := Run(cfg, lightApp(), pol); err != nil {
		t.Fatal(err)
	}
	var epochs []telemetry.Span
	spans := tr.Snapshot()
	for _, sp := range spans {
		if sp.Kind == telemetry.KindEpoch {
			epochs = append(epochs, sp)
		}
	}
	read := telemetry.DecisionEvents(spans)
	if len(pol.events) == 0 || len(epochs) != len(pol.events) || len(read) != len(pol.events) {
		t.Fatalf("%d epoch spans and %d read-back events for %d reported events", len(epochs), len(read), len(pol.events))
	}
	for i, ev := range pol.events {
		sp := epochs[i]
		if want := fmt.Sprintf("epoch %d", ev.Epoch); sp.Name != want {
			t.Errorf("span %d is named %q, want %q", i, sp.Name, want)
		}
		if i == 0 && !math.IsNaN(ev.Reward) {
			t.Errorf("first event's reward = %g, want NaN for no previous action", ev.Reward)
		}
		want := []telemetry.Attr{
			telemetry.Num("epoch", float64(ev.Epoch)),
			telemetry.Num("time_s", ev.TimeS),
			telemetry.Str("workload", ev.Workload),
			telemetry.Num("state", float64(ev.State)),
			telemetry.Num("action", float64(ev.Action)),
			telemetry.Num("reward", ev.Reward),
			telemetry.Num("alpha", ev.Alpha),
			telemetry.Str("phase", ev.Phase),
			telemetry.Bool("explored", ev.Explored),
			telemetry.Str("event", ev.Kind),
			telemetry.Bool("switch_detected", ev.SwitchDetected),
		}
		if !reflect.DeepEqual(sp.Attrs, want) {
			t.Errorf("span %d attrs\n%+v\nwant the event's\n%+v", i, sp.Attrs, want)
		}
		if i == 0 {
			ev.Reward = 0
		}
		if read[i] != ev {
			t.Errorf("event %d reads back as\n%+v\nwant\n%+v", i, read[i], ev)
		}
	}
	if str, _, _ := epochs[0].Attr("reward"); str != "NaN" {
		t.Errorf("first epoch span reward = %q, want \"NaN\"", str)
	}
}

func TestRunErrorEndsSpan(t *testing.T) {
	cfg := DefaultRunConfig()
	tr := telemetry.NewTracer(0)
	cfg.Tracer = tr
	cfg.MaxSimS = 1
	if _, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Powersave}); err == nil {
		t.Fatal("expected max-sim-time error")
	}
	spans := tr.Snapshot()
	if len(spans) == 0 {
		t.Fatal("no spans after failed run")
	}
	var found bool
	for _, sp := range spans {
		if sp.Kind == telemetry.KindRun {
			if sp.Open {
				t.Error("run span left open after error")
			}
			if str, _, ok := sp.Attr("error"); !ok || !strings.Contains(str, "max sim time") {
				t.Errorf("run span error attr = %q, %v", str, ok)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("run span missing")
	}
}

// tripRecorder collects anomalies for assertions.
type tripRecorder struct {
	mu    sync.Mutex
	trips []telemetry.Anomaly
}

func (tr *tripRecorder) Trip(a telemetry.Anomaly) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.trips = append(tr.trips, a)
}

func (tr *tripRecorder) byKind(kind string) []telemetry.Anomaly {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var out []telemetry.Anomaly
	for _, a := range tr.trips {
		if a.Kind == kind {
			out = append(out, a)
		}
	}
	return out
}

func TestRunThermalRunawayAnomaly(t *testing.T) {
	cfg := DefaultRunConfig()
	sink := &tripRecorder{}
	cfg.Anomalies = sink
	cfg.TempCeilingC = 50 // below any loaded chip's operating point: must trip
	if _, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Performance}); err != nil {
		t.Fatal(err)
	}
	trips := sink.byKind(telemetry.AnomalyThermalRunaway)
	if len(trips) != 1 {
		t.Fatalf("thermal trips = %d, want exactly 1 (once per run)", len(trips))
	}
	a := trips[0]
	if a.TempC <= 50 {
		t.Errorf("trip temperature %g not above ceiling", a.TempC)
	}
	if a.Cell == "" || !strings.Contains(a.Detail, "ceiling") {
		t.Errorf("trip poorly labelled: %+v", a)
	}
}

func TestRunNoAnomalyWhenHealthy(t *testing.T) {
	cfg := DefaultRunConfig()
	sink := &tripRecorder{}
	cfg.Anomalies = sink
	cfg.TempCeilingC = 500 // far above anything the model can produce
	if _, err := Run(cfg, lightApp(), LinuxPolicy{Kind: governor.Ondemand}); err != nil {
		t.Fatal(err)
	}
	if len(sink.trips) != 0 {
		t.Errorf("healthy run tripped anomalies: %+v", sink.trips)
	}
}

func TestRunGuardNumeric(t *testing.T) {
	sink := &tripRecorder{}
	g := &runGuard{sink: sink, cell: "c", ceilingC: 100}
	g.sample(1.0, []float64{60, nan()})
	g.sample(2.0, []float64{60, nan()}) // second NaN must not re-trip
	trips := sink.byKind(telemetry.AnomalyNumeric)
	if len(trips) != 1 {
		t.Fatalf("numeric trips = %d, want 1", len(trips))
	}
	if trips[0].Core != 1 {
		t.Errorf("trip core = %d, want 1", trips[0].Core)
	}
	// finals on a NaN metric trips when sampling never did.
	sink2 := &tripRecorder{}
	g2 := &runGuard{sink: sink2, cell: "c"}
	g2.finals(&Result{AvgTempC: nan()})
	if len(sink2.byKind(telemetry.AnomalyNumeric)) != 1 {
		t.Error("finals did not trip on NaN metric")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// BenchmarkRunTraceOff/On prove the acceptance criterion that disabled
// tracing adds no allocations to the simulation loop: compare allocs/op.
func BenchmarkRunTraceOff(b *testing.B) {
	cfg := DefaultRunConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, lightApp(), &ProposedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunTraceOn(b *testing.B) {
	cfg := DefaultRunConfig()
	cfg.Tracer = telemetry.NewTracer(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, lightApp(), &ProposedPolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}
