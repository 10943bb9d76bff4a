package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// fakeClock drives a tracer deterministically.
type fakeClock struct{ us int64 }

func (c *fakeClock) now() int64 { c.us += 100; return c.us }

func newTestTracer(capacity int) *Tracer {
	tr := NewTracer(capacity)
	tr.now = (&fakeClock{}).now
	return tr
}

func TestTracerHierarchyAndSnapshot(t *testing.T) {
	tr := newTestTracer(0)
	job := tr.Start(0, KindJob, "job-000001", Str("experiment", "suite"))
	cell := tr.Start(job, KindCell, "suite/tachyon/proposed")
	run := tr.Start(cell, KindRun, "proposed/tachyon")
	tr.Record(run, KindEpoch, "epoch 1", tr.Now(), 50,
		Num("state", 3), Num("action", 7), Num("reward", 0.5))
	tr.End(run, Num("exec_time_s", 12.5))
	tr.End(cell)
	tr.End(job, Str("state", "done"))

	spans := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byKind := map[string]Span{}
	byID := map[SpanID]Span{}
	for _, sp := range spans {
		byKind[sp.Kind] = sp
		byID[sp.ID] = sp
		if sp.Open {
			t.Errorf("span %s still open after End", sp.Name)
		}
	}
	// The chain must nest job -> cell -> run -> epoch.
	ep := byKind[KindEpoch]
	if byID[ep.Parent].Kind != KindRun {
		t.Errorf("epoch parent kind = %q, want run", byID[ep.Parent].Kind)
	}
	if byID[byID[ep.Parent].Parent].Kind != KindCell {
		t.Error("run not parented under cell")
	}
	if byID[byID[byID[ep.Parent].Parent].Parent].Kind != KindJob {
		t.Error("cell not parented under job")
	}
	if _, num, ok := ep.Attr("action"); !ok || num != 7 {
		t.Errorf("epoch action attr = %v, %v", num, ok)
	}
	if str, _, ok := byKind[KindJob].Attr("state"); !ok || str != "done" {
		t.Errorf("job End attrs not appended: %q, %v", str, ok)
	}
	if byKind[KindRun].DurUS <= 0 {
		t.Error("run span has no duration")
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := newTestTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(0, KindEpoch, "e", int64(i*100), 10, Num("i", float64(i)))
	}
	if tr.Len() != 4 {
		t.Fatalf("retained %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
	spans := tr.Snapshot()
	if _, num, _ := spans[0].Attr("i"); num != 6 {
		t.Errorf("oldest retained = %g, want 6", num)
	}
	if _, num, _ := spans[3].Attr("i"); num != 9 {
		t.Errorf("newest retained = %g, want 9", num)
	}
}

func TestTracerOpenSpansInSnapshot(t *testing.T) {
	tr := newTestTracer(0)
	id := tr.Start(0, KindJob, "running")
	spans := tr.Snapshot()
	if len(spans) != 1 || !spans[0].Open {
		t.Fatalf("open span not snapshotted: %+v", spans)
	}
	if spans[0].DurUS <= 0 {
		t.Error("open span should report duration so far")
	}
	tr.End(id)
	if spans := tr.Snapshot(); spans[0].Open {
		t.Error("ended span still marked open")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	id := tr.Start(0, KindJob, "x", Str("k", "v"))
	tr.Annotate(id, Num("n", 1))
	tr.End(id)
	tr.Record(0, KindEpoch, "e", 0, 1)
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.Dropped() != 0 || tr.Now() != 0 {
		t.Error("nil tracer must be inert")
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(128)
	root := tr.Start(0, KindJob, "job")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := tr.Start(root, KindCell, "cell")
				tr.Annotate(id, Num("i", float64(i)))
				tr.End(id)
				tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 128 {
		t.Errorf("ring should be full: %d", tr.Len())
	}
}

// TestTracerSealConcurrent seals, writes and reads one tracer from several
// goroutines at once, past its capacity, as a job's cells and its /live and
// /trace readers do; run it under -race.
func TestTracerSealConcurrent(t *testing.T) {
	const writers, spans, capacity = 4, 300, 256
	tr := NewTracer(capacity)
	root := tr.Start(0, KindJob, "job")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				tr.Record(root, KindEpoch, "epoch", 0, 1, Num("i", float64(i)))
				if i%7 == 0 {
					tr.Seal()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var cursor int64
		for cursor < writers*spans {
			var got []Span
			got, cursor = tr.Since(cursor)
			if len(got) > capacity {
				t.Errorf("Since returned %d spans, more than the capacity %d", len(got), capacity)
			}
			tr.Snapshot()
		}
	}()
	wg.Wait()
	if tr.Cursor() != writers*spans || tr.Len() != capacity || tr.Dropped() != writers*spans-capacity {
		t.Errorf("cursor %d, len %d, dropped %d; want %d, %d, %d",
			tr.Cursor(), tr.Len(), tr.Dropped(), writers*spans, capacity, writers*spans-capacity)
	}
	if got := tr.Snapshot(); len(got) != capacity+1 || !got[capacity].Open {
		t.Errorf("snapshot holds %d spans, want the %d retained and the open job", len(got), capacity)
	}
}

func TestWriteChromeTraceValid(t *testing.T) {
	tr := newTestTracer(0)
	job := tr.Start(0, KindJob, "job-000001")
	cell := tr.Start(job, KindCell, "suite/tachyon/proposed")
	run := tr.Start(cell, KindRun, "proposed/tachyon")
	tr.Record(run, KindWindow, "window", tr.Now(), 40, Num("core0_mean_c", 61.5))
	tr.Record(run, KindEpoch, "epoch 1", tr.Now(), 40,
		Num("state", 3), Num("action", 1), Num("reward", 0.25))
	tr.End(run)
	tr.End(cell)
	tr.End(job)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var xEvents, metaEvents int
	var sawEpochArgs, windowOnOwnTrack bool
	for _, ev := range parsed.TraceEvents {
		ph := ev["ph"].(string)
		switch ph {
		case "X":
			xEvents++
			if ev["ts"] == nil || ev["dur"] == nil || ev["name"] == nil {
				t.Errorf("X event missing required fields: %v", ev)
			}
			if ev["dur"].(float64) < 1 {
				t.Errorf("X event with sub-1us duration: %v", ev)
			}
			if ev["cat"] == KindEpoch {
				args := ev["args"].(map[string]any)
				if args["state"].(float64) != 3 || args["action"].(float64) != 1 || args["reward"].(float64) != 0.25 {
					t.Errorf("epoch args wrong: %v", args)
				}
				sawEpochArgs = true
			}
			if ev["cat"] == KindWindow && ev["tid"].(float64) >= windowTrackOffset {
				windowOnOwnTrack = true
			}
		case "M":
			metaEvents++
		default:
			t.Errorf("unexpected phase %q", ph)
		}
	}
	if xEvents != 5 {
		t.Errorf("got %d X events, want 5", xEvents)
	}
	if metaEvents < 2 {
		t.Errorf("expected process/thread name metadata, got %d", metaEvents)
	}
	if !sawEpochArgs {
		t.Error("epoch span attrs did not reach args")
	}
	if !windowOnOwnTrack {
		t.Error("window span should sit on its own track")
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	tr := newTestTracer(0)
	job := tr.Start(0, KindJob, "j", Str("experiment", "suite"))
	tr.Record(job, KindEpoch, "epoch 1", 100, 50, Num("state", 2))
	tr.End(job)

	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Fatalf("got %d JSONL lines, want 2", lines)
	}
	back, err := DecodeSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round-trip lost spans: %d", len(back))
	}
	if back[0].Kind != KindEpoch || back[1].Kind != KindJob {
		t.Errorf("round-trip kinds: %q, %q", back[0].Kind, back[1].Kind)
	}
	if _, num, ok := back[0].Attr("state"); !ok || num != 2 {
		t.Error("attrs lost in round trip")
	}
}

func TestSpanContext(t *testing.T) {
	tr := newTestTracer(0)
	id := tr.Start(0, KindCell, "c")
	ctx := ContextWithSpan(t.Context(), tr, id)
	gotTr, gotID := SpanFromContext(ctx)
	if gotTr != tr || gotID != id {
		t.Error("span did not round-trip through context")
	}
	if gotTr, gotID := SpanFromContext(t.Context()); gotTr != nil || gotID != 0 {
		t.Error("empty context should carry no span")
	}
}

// TestTracerSealedMatchesUnsealed: random Start, End, Record and Import
// sequences, many of them past capacity, with Seal at random points, read
// the same through Snapshot, Since from random cursors, Cursor, Len and
// Dropped as on a tracer that never seals, and appending to the attributes
// of one read's spans changes nothing another read returns.
func TestTracerSealedMatchesUnsealed(t *testing.T) {
	var none *Tracer
	none.Seal()
	if none.Cursor() != 0 {
		t.Error("nil tracer must be inert")
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(48)
		sealed, plain := newTestTracer(capacity), newTestTracer(capacity)
		// attrs builds the same attributes afresh for each tracer, so the
		// two never share storage.
		attrs := func(n int) []Attr {
			out := make([]Attr, 0, n)
			for i := 0; i < n; i++ {
				switch i % 4 {
				case 0:
					out = append(out, Num(fmt.Sprintf("k%d", i), float64(n*i)))
				case 1:
					out = append(out, Str("s", strings.Repeat("v", n)))
				case 2:
					out = append(out, Attr{Key: "neg-zero", Num: math.Copysign(0, -1), IsNum: true})
				default:
					out = append(out, Attr{Key: "nan", Num: math.NaN(), IsNum: true})
				}
			}
			return out
		}
		var open []SpanID
		check := func(when string) {
			t.Helper()
			want, got := plain.Snapshot(), sealed.Snapshot()
			if !equalSpans(got, want) {
				t.Fatalf("seed %d, %s: Snapshot of %d spans differs from the unsealed tracer's %d", seed, when, len(got), len(want))
			}
			// Two reads share no attribute storage: each one's appends
			// survive the other's.
			again, _ := sealed.Since(0)
			for i := range again {
				got[i].Attrs = append(got[i].Attrs, Str("read", "first"))
				again[i].Attrs = append(again[i].Attrs, Str("read", "second"))
				if a := got[i].Attrs; a[len(a)-1].Str != "first" {
					t.Fatalf("seed %d, %s: an append to span %d of one read overwrote another read's", seed, when, i)
				}
			}
			if sealed.Len() != plain.Len() || sealed.Dropped() != plain.Dropped() || sealed.Cursor() != plain.Cursor() {
				t.Fatalf("seed %d, %s: Len/Dropped/Cursor %d/%d/%d, unsealed %d/%d/%d", seed, when,
					sealed.Len(), sealed.Dropped(), sealed.Cursor(), plain.Len(), plain.Dropped(), plain.Cursor())
			}
			for _, cursor := range []int64{0, rng.Int63n(plain.Cursor() + 2), plain.Cursor()} {
				wantSpans, wantCur := plain.Since(cursor)
				gotSpans, gotCur := sealed.Since(cursor)
				if gotCur != wantCur || !equalSpans(gotSpans, wantSpans) {
					t.Fatalf("seed %d, %s: Since(%d) = %d spans, cursor %d; unsealed %d spans, cursor %d",
						seed, when, cursor, len(gotSpans), gotCur, len(wantSpans), wantCur)
				}
			}
		}
		for op := 0; op < 400; op++ {
			var parent SpanID
			if len(open) > 0 && rng.Intn(2) == 0 {
				parent = open[rng.Intn(len(open))]
			}
			switch k := rng.Intn(20); {
			case k < 5:
				n := rng.Intn(6)
				id := sealed.Start(parent, KindRun, fmt.Sprintf("run %d", op), attrs(n)...)
				plain.Start(parent, KindRun, fmt.Sprintf("run %d", op), attrs(n)...)
				open = append(open, id)
			case k < 9 && len(open) > 0:
				i := rng.Intn(len(open))
				n := rng.Intn(3)
				sealed.End(open[i], attrs(n)...)
				plain.End(open[i], attrs(n)...)
				open = append(open[:i], open[i+1:]...)
			case k < 14:
				n, start := rng.Intn(13), rng.Int63n(1<<40)-1<<39
				sealed.Record(parent, KindEpoch, fmt.Sprintf("epoch %d", op), start, int64(n), attrs(n)...)
				plain.Record(parent, KindEpoch, fmt.Sprintf("epoch %d", op), start, int64(n), attrs(n)...)
			case k < 16:
				batch := func() []Span {
					return []Span{
						{ID: 7, Kind: KindExec, Name: "exec", StartUS: 5, DurUS: 9, Attrs: attrs(2)},
						{ID: 8, Parent: 7, Kind: KindRun, Name: "run", StartUS: 6, DurUS: 3, Open: true, Attrs: attrs(5)},
						{ID: 9, Parent: 3, Kind: KindWindow, Name: "window 1", StartUS: 6, DurUS: 1},
					}
				}
				sealed.Import(parent, batch(), Str("node", "w1"))
				plain.Import(parent, batch(), Str("node", "w1"))
			case k < 19:
				sealed.Seal()
			default:
				check(fmt.Sprintf("after op %d", op))
			}
		}
		sealed.Seal()
		check("at the end")
	}
}
