package telemetry

import (
	"context"
	"math"
	"slices"
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

// DefaultTracerCapacity bounds how many completed spans a tracer keeps when
// the caller passes a non-positive capacity. A job's decision trace is read
// off its epoch spans, so the bound must hold a whole job: the largest
// registered experiment, fig3 in full mode, records 9,537 spans (2,388 of
// them epochs). Storage grows on demand, so a smaller job holds only its own
// spans.
const DefaultTracerCapacity = 16384

// spansDropped counts completed spans overwritten past a tracer's capacity,
// across all tracers, so /metrics shows when traces (and the decision traces
// read off them) are being truncated; a tracer's own count dies with its job.
var spansDropped = Default().Counter("telemetry_spans_dropped_total",
	"Completed spans overwritten by tracer ring wraparound, across all tracers.")

// Tracer collects hierarchical spans and keeps the newest capacity completed
// ones: once full, each newly completed span overwrites the oldest, so the
// newest N survive however long the traced job runs. A completed span lands
// in a decoded tail; Seal encodes the tail as one span batch
// (EncodeSpanBatch) and keeps it as a sealed segment, about a fifth of the
// tail's size, so a finished job's trace is held encoded. Reads decode what
// they return, and a read from a cursor decodes only the segments past it.
// A Tracer is safe for concurrent use — the cells of one job trace into the
// same tracer from several workers — and every method is nil-receiver safe,
// so call sites need no tracer-enabled branch: a nil *Tracer is a no-op
// tracer.
type Tracer struct {
	// now returns wall-clock microseconds; injectable for deterministic
	// tests.
	now func() int64

	mu       sync.Mutex
	capacity int
	// segments are the sealed spans, oldest first. The oldest skip spans of
	// segments[0] were overwritten; sealed counts the retained rest.
	segments []segment
	skip     int
	sealed   int
	// tail holds the spans completed since the last Seal, in a ring of the
	// whole capacity: it overwrites its own oldest only when no sealed span
	// is left to overwrite.
	tail Ring[Span]
	// total counts every span ever completed, retained or overwritten: the
	// cursor space of Since.
	total  int64
	lastID SpanID
	active map[SpanID]*Span
}

// segment is one sealed span batch of n spans, the oldest of them the
// first-th span the tracer completed (counting from 0). Its bytes never
// change, so reads decode it without holding the tracer's lock.
type segment struct {
	batch []byte
	first int64
	n     int
}

// spans decodes the segment. Seal encoded it from spans this tracer held,
// and a batch EncodeSpanBatch writes always decodes (the codec's round-trip
// tests and FuzzDecodeSpanBatch hold it to that), so an error here is a bug
// in the codec, not bad input.
func (s segment) spans() []Span {
	spans, err := DecodeSpanBatch(s.batch)
	if err != nil {
		panic("telemetry: sealed span segment does not decode: " + err.Error())
	}
	return spans
}

// NewTracer builds a tracer keeping the newest capacity completed spans
// (DefaultTracerCapacity when capacity <= 0). Storage grows on demand rather
// than being preallocated: workers build one tracer per dispatched cell, and
// most cells complete with a handful of spans, so an up-front capacity-sized
// slice would dominate the dispatch path's allocations.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{
		now:      func() int64 { return time.Now().UnixMicro() },
		capacity: capacity,
		tail:     NewRing[Span](capacity),
		active:   make(map[SpanID]*Span),
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

// End closes a span, appending any final attributes, and commits it. Ending
// an unknown (or already ended) span is a no-op.
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

// push commits a completed span to the tail. At capacity it overwrites the
// oldest retained span, sealed or not, and counts the overwrite. Callers
// hold t.mu.
func (t *Tracer) push(sp Span) {
	// Clip the attributes, so a reader appending to its copy's attributes
	// reallocates instead of writing into storage another copy shares.
	sp.Attrs = sp.Attrs[:len(sp.Attrs):len(sp.Attrs)]
	t.total++
	if t.sealed > 0 && t.retained() >= t.capacity {
		t.skip++
		t.sealed--
		if t.skip == t.segments[0].n {
			t.segments[0] = segment{}
			t.segments = t.segments[1:]
			t.skip = 0
		}
		spansDropped.Inc()
	}
	if t.tail.Push(sp) {
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

// Seal encodes the spans completed since the last Seal as one span batch,
// which the tracer keeps in their place; sealing an empty tail is a no-op.
// Reads return the same spans in the same order either way. A service seals
// a job's tracer as each of its cells ends and when the job finishes, so a
// finished job holds its trace encoded.
func (t *Tracer) Seal() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.tail.Len()
	if n == 0 {
		return
	}
	t.segments = append(t.segments, segment{
		batch: EncodeSpanBatch(t.tail.Items()),
		first: t.total - int64(n),
		n:     n,
	})
	t.sealed += n
	t.tail = NewRing[Span](t.capacity)
}

// Dropped returns how many completed spans were overwritten past capacity.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - int64(t.retained())
}

// Len returns the number of retained completed spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retained()
}

// retained is the number of retained completed spans. Callers hold t.mu.
func (t *Tracer) retained() int { return t.sealed + t.tail.Len() }

// Cursor returns the cursor Since would return now: how many spans were
// ever completed. It decodes nothing, so a reader that only watches for
// progress pays nothing for sealed spans.
func (t *Tracer) Cursor() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Since returns the completed spans committed after cursor (a value
// previously returned by Since or Cursor, or 0 for the beginning), oldest
// first, plus the new cursor. A cursor that fell behind the retained spans
// resyncs at the oldest retained span, so a lagging reader skips the
// overwritten ones. Only the sealed segments holding spans past the cursor
// are decoded. The cursor only grows, so it doubles as a progress signal.
func (t *Tracer) Since(cursor int64) ([]Span, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	if cursor >= t.total {
		t.mu.Unlock()
		return nil, t.total
	}
	r := t.readFrom(max(cursor, t.total-int64(t.retained())))
	total := t.total
	t.mu.Unlock()
	return r.spans(0), total
}

// Snapshot returns the retained spans: completed spans oldest first,
// followed by the still-open ones (marked Open, with their duration so far),
// sorted by start time. The result's slices are its own: sealed spans are
// decoded afresh on every call, and appending to any span's attributes
// reallocates rather than writing into storage the tracer or another read
// holds.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	r := t.readFrom(t.total - int64(t.retained()))
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
	t.mu.Unlock()
	sort.Slice(open, func(i, j int) bool {
		if open[i].StartUS != open[j].StartUS {
			return open[i].StartUS < open[j].StartUS
		}
		return open[i].ID < open[j].ID
	})
	return append(r.spans(len(open)), open...)
}

// read is the part of a tracer one read returns, taken under the tracer's
// lock: the sealed segments holding retained spans from the from-th on, and
// a copy of the tail's. Decoding the segments needs no lock.
type read struct {
	segments []segment
	from     int64
	n        int
	tail     []Span
}

// readFrom takes the retained spans from the from-th on (from at least the
// oldest retained). Callers hold t.mu.
func (t *Tracer) readFrom(from int64) read {
	i := len(t.segments)
	for i > 0 && t.segments[i-1].first+int64(t.segments[i-1].n) > from {
		i--
	}
	return read{
		segments: append([]segment(nil), t.segments[i:]...),
		from:     from,
		n:        int(t.total - from),
		tail:     t.tail.newest(int(min(t.total-from, int64(t.tail.Len())))),
	}
}

// spans decodes the read's segments and returns its spans, oldest first,
// with room for extra more.
func (r read) spans(extra int) []Span {
	if len(r.segments) == 0 {
		return slices.Grow(r.tail, extra)
	}
	out := make([]Span, 0, r.n+extra)
	for _, seg := range r.segments {
		out = append(out, seg.spans()[max(r.from-seg.first, 0):]...)
	}
	return append(out, r.tail...)
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
