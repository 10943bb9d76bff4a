package telemetry

import (
	"context"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SpanID identifies one span within a Tracer; 0 means "no span" and is a
// valid parent for root spans.
type SpanID uint64

// Span kinds, from the outermost grouping to the innermost unit of work. A
// job groups the cells of one submitted campaign, a cell is one pool task, a
// run is one sim.Run inside a cell, a window is one trace-sample aggregation
// window of a run, and an epoch is one RL decision epoch.
const (
	KindJob    = "job"
	KindCell   = "cell"
	KindRun    = "run"
	KindWindow = "window"
	KindEpoch  = "epoch"
)

// Cluster-mode span kinds. A phase span is one coordinator-side stage of a
// cell's lifetime (queue-wait, commit), a dispatch span is one lease attempt
// (grant → result or expiry), and an exec span is the remote root under which
// a worker node's run/window/epoch spans nest before they are merged back
// into the coordinator's trace.
const (
	KindPhase    = "phase"
	KindDispatch = "dispatch"
	KindExec     = "exec"
)

// Attr is one key/value attribute attached to a span: either a string or a
// number (a union rather than `any`, so recording an attribute never boxes).
type Attr struct {
	Key string  `json:"key"`
	Str string  `json:"str,omitempty"`
	Num float64 `json:"num,omitempty"`
	// IsNum selects Num over Str as the value.
	IsNum bool `json:"is_num,omitempty"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Str: value} }

// Num builds a numeric attribute. NaN and Inf (legal in some metrics, e.g.
// an infinite MTTF when no thermal cycles occurred) degrade to their string
// form, since JSON has no encoding for them.
func Num(key string, value float64) Attr {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		return Attr{Key: key, Str: strconv.FormatFloat(value, 'g', -1, 64)}
	}
	return Attr{Key: key, Num: value, IsNum: true}
}

// Bool builds a boolean attribute (rendered as the strings true/false).
func Bool(key string, v bool) Attr {
	if v {
		return Attr{Key: key, Str: "true"}
	}
	return Attr{Key: key, Str: "false"}
}

// Span is one timed, attributed unit of work. Times are wall-clock
// microseconds since the Unix epoch (the Chrome trace-event unit); simulated
// time, where meaningful, travels in the attributes.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	// Kind is one of the Kind* constants; Name labels the specific span.
	Kind    string `json:"kind"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	// Open marks a snapshot of a span that had not ended yet (its DurUS is
	// the duration up to the snapshot).
	Open  bool   `json:"open,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr returns the value of the named attribute rendered as (string, number,
// found).
func (s Span) Attr(key string) (string, float64, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Str, a.Num, true
		}
	}
	return "", 0, false
}

// DefaultTracerCapacity bounds a tracer's completed-span ring when the
// caller passes a non-positive capacity. A job's decision trace is read off
// its epoch spans, so the bound must hold a whole job: the largest registered
// experiment, fig3 in full mode, records 9,537 spans (2,388 of them epochs).
// The ring grows on demand, so a smaller job holds only its own spans.
const DefaultTracerCapacity = 16384

// spansDropped counts completed spans overwritten by ring wraparound across
// all tracers, so /metrics shows when traces (and the decision traces read
// off them) are being truncated; a tracer's own count dies with its job.
var spansDropped = Default().Counter("telemetry_spans_dropped_total",
	"Completed spans overwritten by tracer ring wraparound, across all tracers.")

// Tracer collects hierarchical spans into a bounded ring: once full, newly
// completed spans overwrite the oldest, so the newest N survive however long
// the traced job runs. It is safe for concurrent use — the cells of one job
// trace into the same ring from several workers — and every method is
// nil-receiver safe, so call sites need no tracer-enabled branch: a nil
// *Tracer is a no-op tracer.
type Tracer struct {
	// now returns wall-clock microseconds; injectable for deterministic
	// tests.
	now func() int64

	mu     sync.Mutex
	done   Ring[Span] // completed spans
	lastID SpanID
	active map[SpanID]*Span
}

// NewTracer builds a tracer keeping the newest capacity completed spans
// (DefaultTracerCapacity when capacity <= 0). The ring storage grows on
// demand rather than being preallocated: workers build one tracer per
// dispatched cell, and most cells complete with a handful of spans, so an
// up-front capacity-sized slice would dominate the dispatch path's
// allocations.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{
		now:    func() int64 { return time.Now().UnixMicro() },
		done:   NewRing[Span](capacity),
		active: make(map[SpanID]*Span),
	}
}

// Now returns the tracer's current wall clock in microseconds (0 on a nil
// tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// Start opens a span under parent (0 for a root span) and returns its ID.
func (t *Tracer) Start(parent SpanID, kind, name string, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	id := t.lastID
	t.active[id] = &Span{
		ID:      id,
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		StartUS: start,
		Attrs:   attrs,
	}
	return id
}

// Annotate appends attributes to a still-open span (no-op once ended).
func (t *Tracer) Annotate(id SpanID, attrs ...Attr) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp, ok := t.active[id]; ok {
		sp.Attrs = append(sp.Attrs, attrs...)
	}
}

// End closes a span, appending any final attributes, and commits it to the
// ring. Ending an unknown (or already ended) span is a no-op.
func (t *Tracer) End(id SpanID, attrs ...Attr) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp, ok := t.active[id]
	if !ok {
		return
	}
	delete(t.active, id)
	sp.DurUS = end - sp.StartUS
	if sp.DurUS < 0 {
		sp.DurUS = 0
	}
	sp.Attrs = append(sp.Attrs, attrs...)
	t.push(*sp)
}

// push commits a completed span to the ring, counting an overwrite. Callers
// hold t.mu.
func (t *Tracer) push(sp Span) {
	if t.done.Push(sp) {
		spansDropped.Inc()
	}
}

// Record commits a fully formed span in one call — the epoch path, where
// both endpoints are known when the span is produced.
func (t *Tracer) Record(parent SpanID, kind, name string, startUS, durUS int64, attrs ...Attr) SpanID {
	if t == nil {
		return 0
	}
	if durUS < 0 {
		durUS = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lastID++
	id := t.lastID
	t.push(Span{
		ID:      id,
		Parent:  parent,
		Kind:    kind,
		Name:    name,
		StartUS: startUS,
		DurUS:   durUS,
		Attrs:   attrs,
	})
	return id
}

// Dropped returns how many completed spans were overwritten by wraparound.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done.Dropped()
}

// Since returns the completed spans committed after cursor (a value
// previously returned by Since, or 0 for the beginning), oldest first, plus
// the new cursor. A cursor that fell behind the ring resyncs at the oldest
// retained span, so a lagging reader skips the overwritten ones. The cursor
// only grows, so it doubles as a progress signal.
func (t *Tracer) Since(cursor int64) ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done.Since(cursor)
}

// Len returns the number of retained completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done.Len()
}

// Snapshot returns the retained spans: completed spans oldest first,
// followed by the still-open ones (marked Open, with their duration so far),
// sorted by start time. The result shares nothing with the tracer.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	open := make([]Span, 0, len(t.active))
	for _, sp := range t.active {
		cp := *sp
		cp.Attrs = append([]Attr(nil), sp.Attrs...)
		cp.Open = true
		cp.DurUS = now - cp.StartUS
		if cp.DurUS < 0 {
			cp.DurUS = 0
		}
		open = append(open, cp)
	}
	sort.Slice(open, func(i, j int) bool {
		if open[i].StartUS != open[j].StartUS {
			return open[i].StartUS < open[j].StartUS
		}
		return open[i].ID < open[j].ID
	})
	return append(t.done.Items(), open...)
}

// Import merges a span batch produced by another tracer (typically a remote
// node's snapshot) into this one: every imported span gets a fresh local ID,
// parent links inside the batch are remapped, and spans whose parent is not
// in the batch (the batch's roots) are re-parented under parent and gain the
// given attributes (e.g. the node name and clock offset). The batch's
// timestamps are taken as-is — senders align clocks before shipping. Returns
// how many spans were imported.
func (t *Tracer) Import(parent SpanID, spans []Span, rootAttrs ...Attr) int {
	if t == nil || len(spans) == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idmap := make(map[SpanID]SpanID, len(spans))
	for i := range spans {
		t.lastID++
		idmap[spans[i].ID] = t.lastID
	}
	for i := range spans {
		sp := spans[i] // copy; the caller's batch stays untouched
		sp.ID = idmap[sp.ID]
		if mapped, ok := idmap[sp.Parent]; ok && sp.Parent != 0 {
			sp.Parent = mapped
		} else {
			sp.Parent = parent
			if len(rootAttrs) > 0 {
				attrs := make([]Attr, 0, len(sp.Attrs)+len(rootAttrs))
				attrs = append(attrs, sp.Attrs...)
				sp.Attrs = append(attrs, rootAttrs...)
			}
		}
		t.push(sp)
	}
	return len(spans)
}

// spanCtxKey carries a (tracer, span) pair through a context.
type spanCtxKey struct{}

type spanCtxVal struct {
	tracer *Tracer
	span   SpanID
}

// ContextWithSpan returns a context carrying tracer and the current span, so
// layers that only see a context (the experiment cells) can parent their
// spans correctly.
func ContextWithSpan(ctx context.Context, tracer *Tracer, span SpanID) context.Context {
	if tracer == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, spanCtxVal{tracer: tracer, span: span})
}

// SpanFromContext returns the tracer and span installed by ContextWithSpan
// (nil, 0 when none).
func SpanFromContext(ctx context.Context) (*Tracer, SpanID) {
	if v, ok := ctx.Value(spanCtxKey{}).(spanCtxVal); ok {
		return v.tracer, v.span
	}
	return nil, 0
}
