package telemetry

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("requests_total", "requests")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Errorf("counter = %d, want 3", c.Value())
	}
	g := reg.Gauge("depth", "queue depth")
	g.Set(4.5)
	g.Add(-1.5)
	if g.Value() != 3 {
		t.Errorf("gauge = %g, want 3", g.Value())
	}
	if v, ok := reg.Value("requests_total"); !ok || v != 3 {
		t.Errorf("Value(requests_total) = %g, %v", v, ok)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("c", "help", L("k", "v"))
	b := reg.Counter("c", "help", L("k", "v"))
	if a != b {
		t.Error("same (name, labels) should return the same counter")
	}
	other := reg.Counter("c", "help", L("k", "w"))
	if a == other {
		t.Error("distinct labels should return distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as gauge should panic")
		}
	}()
	reg.Gauge("c", "help")
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{1, 2})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{-5, 0, 1} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(2)
	h.Observe(2.0001)
	h.Observe(100)
	snap := h.Snapshot()
	if snap.Cumulative[0] != 3 { // <= 1
		t.Errorf("le=1 cumulative = %d, want 3", snap.Cumulative[0])
	}
	if snap.Cumulative[1] != 5 { // <= 2
		t.Errorf("le=2 cumulative = %d, want 5", snap.Cumulative[1])
	}
	if snap.Cumulative[2] != 7 || snap.Count != 7 { // +Inf
		t.Errorf("+Inf cumulative = %d, count = %d, want 7", snap.Cumulative[2], snap.Count)
	}
	if snap.Sum != -5+0+1+1.5+2+2.0001+100 {
		t.Errorf("sum = %g", snap.Sum)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 2, 3)
	if len(lin) != 3 || lin[2] != 4 {
		t.Errorf("LinearBuckets = %v", lin)
	}
	exp := ExponentialBuckets(1, 2, 4)
	if len(exp) != 4 || exp[3] != 8 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
}

// TestConcurrentWrites hammers one counter, gauge and histogram from many
// goroutines; totals must be exact. Run under -race in CI.
func TestConcurrentWrites(t *testing.T) {
	reg := NewRegistry()
	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Resolve at the call site, as instrumented code does.
			c := reg.Counter("hits_total", "hits")
			g := reg.Gauge("level", "level")
			h := reg.Histogram("obs", "observations", []float64{0.25, 0.5, 0.75})
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%4) * 0.25)
			}
		}()
	}
	wg.Wait()
	const total = writers * perWriter
	if v := reg.Counter("hits_total", "hits").Value(); v != total {
		t.Errorf("counter = %d, want %d", v, total)
	}
	if v := reg.Gauge("level", "level").Value(); v != total {
		t.Errorf("gauge = %g, want %d", v, total)
	}
	snap := reg.Histogram("obs", "observations", nil).Snapshot()
	if snap.Count != total {
		t.Errorf("histogram count = %d, want %d", snap.Count, total)
	}
	// i%4 yields 0, 0.25, 0.5, 0.75 uniformly; le=0.25 covers two of four.
	if snap.Cumulative[0] != total/2 {
		t.Errorf("le=0.25 cumulative = %d, want %d", snap.Cumulative[0], total/2)
	}
}

// TestSnapshotWhileWriting takes snapshots concurrently with writers and
// checks every snapshot is internally consistent: cumulative counts are
// monotone, Count equals the +Inf bucket, and totals never decrease between
// successive snapshots.
func TestSnapshotWhileWriting(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("inflight_obs", "observations", []float64{1, 2, 3})
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
					h.Observe(float64(i % 5))
				}
			}
		}()
	}
	var prev int64
	for i := 0; i < 2000; i++ {
		snap := h.Snapshot()
		for j := 1; j < len(snap.Cumulative); j++ {
			if snap.Cumulative[j] < snap.Cumulative[j-1] {
				t.Fatalf("snapshot %d: cumulative not monotone: %v", i, snap.Cumulative)
			}
		}
		if snap.Count != snap.Cumulative[len(snap.Cumulative)-1] {
			t.Fatalf("snapshot %d: count %d != +Inf bucket %d", i, snap.Count, snap.Cumulative[len(snap.Cumulative)-1])
		}
		if snap.Count < prev {
			t.Fatalf("snapshot %d: count went backwards: %d < %d", i, snap.Count, prev)
		}
		prev = snap.Count
	}
	close(done)
	wg.Wait()
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zz_total", "last family").Add(7)
	reg.Counter("aa_total", "first family", L("b", "2")).Inc()
	reg.Counter("aa_total", "first family", L("b", "1")).Inc()
	reg.Gauge("mid_gauge", "a gauge").Set(1.5)
	reg.Histogram("mid_hist", "a histogram", []float64{1, 2}, L("route", "/x")).Observe(1)
	reg.GaugeFunc("fn_gauge", "from callback", func() float64 { return 42 })
	hookRan := false
	reg.OnGather(func() { hookRan = true })

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !hookRan {
		t.Error("gather hook did not run")
	}
	// Deterministic: same content twice.
	var sb2 strings.Builder
	if err := WritePrometheus(&sb2, reg); err != nil {
		t.Fatal(err)
	}
	if out != sb2.String() {
		t.Error("exposition not deterministic across calls")
	}
	// Families sorted by name, series by labels.
	wantOrder := []string{
		"# HELP aa_total first family",
		"# TYPE aa_total counter",
		`aa_total{b="1"} 1`,
		`aa_total{b="2"} 1`,
		"# TYPE fn_gauge gauge",
		"fn_gauge 42",
		"# TYPE mid_gauge gauge",
		"mid_gauge 1.5",
		"# TYPE mid_hist histogram",
		`mid_hist_bucket{route="/x",le="1"} 1`,
		`mid_hist_bucket{route="/x",le="2"} 1`,
		`mid_hist_bucket{route="/x",le="+Inf"} 1`,
		`mid_hist_sum{route="/x"} 1`,
		`mid_hist_count{route="/x"} 1`,
		"# TYPE zz_total counter",
		"zz_total 7",
	}
	pos := -1
	for _, want := range wantOrder {
		idx := strings.Index(out, want)
		if idx < 0 {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
		if idx < pos {
			t.Fatalf("exposition out of order at %q:\n%s", want, out)
		}
		pos = idx
	}
}

func TestHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x_total", "x").Inc()
	rr := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "x_total 1") {
		t.Errorf("body missing counter:\n%s", rr.Body.String())
	}
}

func TestMergedRegistries(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("from_a_total", "a").Inc()
	b.Counter("from_b_total", "b").Inc()
	var sb strings.Builder
	if err := WritePrometheus(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	ia, ib := strings.Index(out, "from_a_total 1"), strings.Index(out, "from_b_total 1")
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("merged exposition wrong:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("esc_total", "e", L("path", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Errorf("escaping wrong:\n%s", sb.String())
	}
}

func TestParseLevel(t *testing.T) {
	for in, wantErr := range map[string]bool{"debug": false, "info": false, "warn": false, "error": false, "trace": true} {
		if _, err := ParseLevel(in); (err != nil) != wantErr {
			t.Errorf("ParseLevel(%q) err = %v", in, err)
		}
	}
}

// The benchmarks below guard the package's core promise: observing a metric
// on the simulation hot path must not allocate. Registration (get-or-create)
// is the slow path and is benchmarked separately.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "b", DefBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%100) / 100)
	}
}

func BenchmarkGaugeSet(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge", "b")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkCounterGetOrCreate(b *testing.B) {
	reg := NewRegistry()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench_total", "b", L("route", "/v1/jobs")).Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 20; i++ {
		reg.Counter("bench_total", "b", L("i", strconv.Itoa(i))).Add(int64(i))
		reg.Histogram("bench_seconds", "b", DefBuckets, L("i", strconv.Itoa(i))).Observe(float64(i))
	}
	var sb strings.Builder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		if err := WritePrometheus(&sb, reg); err != nil {
			b.Fatal(err)
		}
	}
}
