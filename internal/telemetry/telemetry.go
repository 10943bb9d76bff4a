// Package telemetry is the repository's observability layer: an
// allocation-light registry of atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition, a bounded span tracer whose
// epoch spans carry the RL decision events, and slog helpers shared by the
// binaries.
//
// Metric values are lock-free on the hot path (atomic integers, CAS float
// adds); the registry mutex is only taken on registration and gather.
// Registration is get-or-create: asking twice for the same (name, labels)
// returns the same metric, so packages may resolve metrics at call sites
// without keeping handles.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value pair attached to a metric series.
type Label struct {
	Key, Value string
}

// L builds a Label (shorthand for call sites).
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n (n must be non-negative for the value to
// stay monotonic; this is not enforced on the hot path).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metric kinds as exposed in the # TYPE line.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instance within a family. Exactly one of the value
// fields is set, matching the family kind (fn may back either a counter or a
// gauge, evaluated at gather time).
type series struct {
	labels string // canonical rendered label set, "" for none
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family groups all series of one metric name.
type family struct {
	name, help, kind string
	series           map[string]*series
}

// Registry holds metric families and gather hooks. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	hooks    []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry backs process-wide metrics (sim and rl instrumentation).
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// renderLabels produces the canonical `{k="v",...}` form, keys sorted. An
// empty label set renders as "".
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// escapeLabelValue escapes per the Prometheus text format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// getOrCreate resolves the series for (name, labels), creating family and
// series as needed. It panics when the name is reused with another kind —
// that is a programming error, like a duplicate flag registration.
func (r *Registry) getOrCreate(name, help, kind string, labels []Label, mk func() *series) *series {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	s, ok := fam.series[key]
	if !ok {
		s = mk()
		s.labels = key
		fam.series[key] = s
	}
	return s
}

// Counter returns the counter for (name, labels), registering it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.getOrCreate(name, help, kindCounter, labels, func() *series { return &series{c: &Counter{}} })
	if s.c == nil {
		panic(fmt.Sprintf("telemetry: metric %q is a counter func, not a counter", name))
	}
	return s.c
}

// CounterFunc registers a counter whose value is read from fn at gather
// time (e.g. a projection of an existing atomic). Re-registering the same
// (name, labels) keeps the first callback.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, kindCounter, labels, func() *series { return &series{fn: fn} })
}

// Gauge returns the gauge for (name, labels), registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.getOrCreate(name, help, kindGauge, labels, func() *series { return &series{g: &Gauge{}} })
	if s.g == nil {
		panic(fmt.Sprintf("telemetry: metric %q is a gauge func, not a gauge", name))
	}
	return s.g
}

// GaugeFunc registers a gauge evaluated from fn at gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, kindGauge, labels, func() *series { return &series{fn: fn} })
}

// Histogram returns the histogram for (name, labels), registering it with
// the given bucket upper bounds on first use (later calls reuse the first
// registration's buckets).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	s := r.getOrCreate(name, help, kindHistogram, labels, func() *series { return &series{h: newHistogram(buckets)} })
	return s.h
}

// OnGather registers a hook run at the start of every gather (exposition or
// Value lookup), e.g. to refresh gauges computed from external state.
func (r *Registry) OnGather(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// runHooks snapshots and runs the gather hooks outside the registry lock so
// hooks may register or set metrics.
func (r *Registry) runHooks() {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// Value reads the current value of one series, running gather hooks first.
// Histograms report their total observation count. The second result is
// false when the series does not exist.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	r.runHooks()
	key := renderLabels(labels)
	r.mu.Lock()
	fam, ok := r.families[name]
	var s *series
	if ok {
		s, ok = fam.series[key]
	}
	r.mu.Unlock()
	if !ok {
		return 0, false
	}
	switch {
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return s.g.Value(), true
	case s.h != nil:
		return float64(s.h.Count()), true
	case s.fn != nil:
		return s.fn(), true
	}
	return 0, false
}
