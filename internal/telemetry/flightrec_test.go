package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFlightRecorderTripDumpsContext(t *testing.T) {
	dir := t.TempDir()
	tr := newTestTracer(0)
	run := tr.Start(0, KindRun, "proposed/tachyon")
	tr.Record(run, KindEpoch, "epoch 1", tr.Now(), 10,
		DecisionEvent{Epoch: 1, TimeS: 10, State: 2, Action: 1, Kind: EventDecision}.SpanAttrs()...)
	reg := NewRegistry()

	fr := NewFlightRecorder(dir, tr, reg)
	fr.SetJob("job-000042")
	fr.Trip(Anomaly{
		Kind: AnomalyThermalRunaway, Cell: "suite/tachyon/proposed",
		Detail: "core 3 at 131.2 C over ceiling 120.0 C", TimeS: 42.5, TempC: 131.2, Core: 3,
	})

	if fr.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", fr.Trips())
	}
	path := filepath.Join(dir, "flightrec-job-000042.json")
	if fr.Path() != path {
		t.Fatalf("path = %q, want %q", fr.Path(), path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	var dump struct {
		Job       string          `json:"job"`
		Anomalies []Anomaly       `json:"anomalies"`
		Spans     []Span          `json:"spans"`
		Events    []DecisionEvent `json:"events"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if dump.Job != "job-000042" {
		t.Errorf("dump job = %q", dump.Job)
	}
	if len(dump.Anomalies) != 1 || dump.Anomalies[0].Kind != AnomalyThermalRunaway {
		t.Fatalf("anomalies = %+v", dump.Anomalies)
	}
	if dump.Anomalies[0].Job != "job-000042" {
		t.Error("anomaly did not inherit the recorder's job")
	}
	if dump.Anomalies[0].TempC != 131.2 || dump.Anomalies[0].Core != 3 {
		t.Errorf("thermal details lost: %+v", dump.Anomalies[0])
	}
	if len(dump.Spans) == 0 {
		t.Error("dump carries no span context")
	}
	if len(dump.Events) != 1 || dump.Events[0].State != 2 {
		t.Errorf("dump events = %+v", dump.Events)
	}
	if got, _ := reg.Value("flightrec_alerts_total", L("kind", AnomalyThermalRunaway)); got != 1 {
		t.Errorf("flightrec_alerts_total{kind=thermal_runaway} = %g, want 1", got)
	}
}

func TestFlightRecorderAccumulatesAnomalies(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	fr := NewFlightRecorder(dir, nil, reg)
	fr.SetJob("j1")
	fr.Trip(Anomaly{Kind: AnomalyNumeric, Detail: "NaN temperature on core 0", TimeS: 5})
	fr.Trip(Anomaly{Kind: AnomalyStall, Detail: "no progress for 30s"})

	data, err := os.ReadFile(fr.Path())
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Anomalies) != 2 {
		t.Fatalf("anomalies = %d, want 2 (accumulated)", len(dump.Anomalies))
	}
	if dump.Anomalies[0].Kind != AnomalyNumeric || dump.Anomalies[1].Kind != AnomalyStall {
		t.Errorf("kinds = %q, %q", dump.Anomalies[0].Kind, dump.Anomalies[1].Kind)
	}
	if got, _ := reg.Value("flightrec_alerts_total", L("kind", AnomalyStall)); got != 1 {
		t.Errorf("stall alert counter = %g", got)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.SetJob("x")
	fr.Trip(Anomaly{Kind: AnomalyNumeric})
	if fr.Trips() != 0 || fr.Path() != "" {
		t.Error("nil flight recorder must be inert")
	}
}

func TestFlightRecorderNoJobNoFile(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir, nil, NewRegistry())
	fr.Trip(Anomaly{Kind: AnomalyNumeric, Detail: "pre-job"})
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("no file expected before SetJob, found %v", entries)
	}
	// The trip is still counted, and a later SetJob+Trip flushes everything.
	if fr.Trips() != 1 {
		t.Errorf("trips = %d", fr.Trips())
	}
	fr.SetJob("late")
	fr.Trip(Anomaly{Kind: AnomalyStall, Detail: "late"})
	data, err := os.ReadFile(filepath.Join(dir, "flightrec-late.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDump
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Anomalies) != 2 {
		t.Errorf("pre-job anomaly lost: %+v", dump.Anomalies)
	}
}

// TestTracerOverflowCounter overflows a tracer's span ring and asserts the
// process-wide drop counter surfaces the overwrites in /metrics.
func TestTracerOverflowCounter(t *testing.T) {
	before, _ := Default().Value("telemetry_spans_dropped_total")
	tr := newTestTracer(16)
	for i := 0; i < 40; i++ {
		tr.Record(0, KindEpoch, "e", int64(i), 1)
	}
	if tr.Len() != 16 || tr.Dropped() != 24 {
		t.Fatalf("retained %d, dropped %d; want 16 and 24", tr.Len(), tr.Dropped())
	}
	after, _ := Default().Value("telemetry_spans_dropped_total")
	if after-before != 24 {
		t.Errorf("drop counter moved by %g, want 24", after-before)
	}
	// The counter must actually appear on the exposition page.
	rw := httptest.NewRecorder()
	Handler(Default()).ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rw.Body.String(), "telemetry_spans_dropped_total") {
		t.Error("drop counter missing from /metrics exposition")
	}
}

func TestTracerSinceCursor(t *testing.T) {
	tr := newTestTracer(4)
	epoch := func(i int) {
		tr.Record(0, KindEpoch, fmt.Sprintf("epoch %d", i), 0, 1, DecisionEvent{Epoch: i}.SpanAttrs()...)
	}
	epochs := func(spans []Span) []int {
		var out []int
		for _, ev := range DecisionEvents(spans) {
			out = append(out, ev.Epoch)
		}
		return out
	}
	spans, cur := tr.Since(0)
	if len(spans) != 0 || cur != 0 {
		t.Fatalf("empty tracer: %v, %d", spans, cur)
	}
	// Open spans are not committed yet, so Since does not return them.
	open := tr.Start(0, KindRun, "run")
	epoch(1)
	epoch(2)
	spans, cur = tr.Since(cur)
	if fmt.Sprint(epochs(spans)) != "[1 2]" || len(spans) != 2 {
		t.Fatalf("first drain: %+v", spans)
	}
	// Nothing new: cursor unchanged, nothing returned.
	spans, cur2 := tr.Since(cur)
	if len(spans) != 0 || cur2 != cur {
		t.Fatalf("idle drain: %+v, %d", spans, cur2)
	}
	// Overflow while the reader lags: only the retained tail comes back.
	for i := 3; i <= 9; i++ {
		epoch(i)
	}
	tr.End(open)
	spans, cur = tr.Since(cur)
	if fmt.Sprint(epochs(spans)) != "[7 8 9]" || len(spans) != 4 || spans[3].Kind != KindRun {
		t.Errorf("lagged drain: epochs %v of %d spans, want [7 8 9] then the run", epochs(spans), len(spans))
	}
	if cur != 10 {
		t.Errorf("cursor = %d, want 10", cur)
	}
	var nilTracer *Tracer
	if spans, cur := nilTracer.Since(0); spans != nil || cur != 0 {
		t.Error("nil tracer must be inert")
	}
}

// TestTracerDefaultCapacity: a non-positive capacity keeps the newest
// DefaultTracerCapacity spans.
func TestTracerDefaultCapacity(t *testing.T) {
	tr := newTestTracer(0)
	for i := 0; i <= DefaultTracerCapacity; i++ {
		tr.Record(0, KindEpoch, "e", 0, 1)
	}
	if tr.Len() != DefaultTracerCapacity || tr.Dropped() != 1 {
		t.Errorf("len %d dropped %d, want %d and 1", tr.Len(), tr.Dropped(), DefaultTracerCapacity)
	}
}

// TestConcurrentExposition hammers a registry from many goroutines while
// scraping it — the satellite race test for Prometheus exposition.
func TestConcurrentExposition(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := reg.Counter("hammer_total", "h", L("worker", fmt.Sprint(w)))
			g := reg.Gauge("hammer_gauge", "h")
			h := reg.Histogram("hammer_seconds", "h", []float64{0.1, 1, 10})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 13))
				// New series appear mid-scrape too.
				reg.Counter("hammer_total", "h", L("worker", fmt.Sprint(w)), L("i", fmt.Sprint(i%5))).Inc()
			}
		}(w)
	}
	handler := Handler(reg)
	for i := 0; i < 50; i++ {
		rw := httptest.NewRecorder()
		handler.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
		if rw.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rw.Code)
		}
	}
	close(stop)
	wg.Wait()
	rw := httptest.NewRecorder()
	handler.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rw.Body.String(), "hammer_total") {
		t.Error("final scrape missing hammered series")
	}
}
