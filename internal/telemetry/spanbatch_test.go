package telemetry

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// recordedRun is one example-tournament run's span batch as a cluster worker
// ships it (cell 13, tournament/proposed/mpegdec/s2/r0: 104 spans, near the
// example's mean of 93), written with WriteSpansJSONL. The fuzz target seeds
// from it and the benchmarks encode it. It is a recording, not a fresh run,
// so a fuzz worker starts without simulating.
const recordedRun = "testdata/tournament-run.jsonl"

// recordedBatch loads recordedRun.
func recordedBatch(tb testing.TB) []Span {
	tb.Helper()
	f, err := os.Open(recordedRun)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	spans, err := DecodeSpansJSONL(f)
	if err != nil {
		tb.Fatal(err)
	}
	return spans
}

// cutSpans is the trace of a cell cut short: the root and a run span both
// ended with an error, with one window span still open at the snapshot.
func cutSpans() []Span {
	tr := newTestTracer(0)
	exec := tr.Start(0, KindExec, "exec job-000002/3", Str("worker", "w0"), Num("cell", 3))
	run := tr.Start(exec, KindRun, "run-003")
	tr.Start(run, KindWindow, "window 1", Num("time_s", 0))
	tr.End(run, Str("error", context.Canceled.Error()))
	tr.End(exec, Bool("error", true))
	return tr.Snapshot()
}

// equalSpans is reflect.DeepEqual with attribute numbers compared by their
// bits, so NaN equals itself and −0 differs from +0.
func equalSpans(a, b []Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if len(x.Attrs) != len(y.Attrs) {
			return false
		}
		for j := range x.Attrs {
			p, q := x.Attrs[j], y.Attrs[j]
			if p.Key != q.Key || p.Str != q.Str || p.IsNum != q.IsNum ||
				math.Float64bits(p.Num) != math.Float64bits(q.Num) {
				return false
			}
		}
		x.Attrs, y.Attrs = nil, nil
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// allocBytes reports the heap bytes f allocates. runtime.ReadMemStats stops
// the world, which costs the fuzz target speed, but it is exact: the
// runtime/metrics counters credit small objects to whoever refills their
// span, hundreds of KB off on this decoder.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeSpanBatch holds the decoder to the invariants of a boundary that
// reads untrusted bytes (a cluster coordinator decodes what its workers
// send): no panic, a *SpanBatchError for input it rejects, allocation
// bounded by the input's length, and a batch that decodes re-encodes to one
// that decodes to the same spans, field by field. The seeds added here are
// written by the encoder under test, so they cannot show it losing a field;
// testdata/fuzz/FuzzDecodeSpanBatch/every-field is a stored batch that sets
// every field (an open span, extreme IDs and times, −0, a NaN payload, a
// string beside a number), so a field the encoder drops fails its re-encode.
func FuzzDecodeSpanBatch(f *testing.F) {
	run := EncodeSpanBatch(recordedBatch(f))
	f.Add(run)
	f.Add(EncodeSpanBatch(cutSpans()))
	f.Add(EncodeSpanBatch(nil))
	f.Add(run[:len(run)/2])
	f.Add(append([]byte{spanBatchVersion + 1}, run[1:]...))
	f.Fuzz(func(t *testing.T, in []byte) {
		var spans []Span
		var err error
		// The decoder allocates at most ~24 bytes per input byte (a 48-byte
		// Attr per 2-byte minimum encoding), plus the error's text.
		if n, limit := allocBytes(func() { spans, err = DecodeSpanBatch(in) }), 32*uint64(len(in))+16<<10; n > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes (limit %d)", len(in), n, limit)
		}
		if err != nil {
			var be *SpanBatchError
			if !errors.As(err, &be) {
				t.Fatalf("got %v (%T), want a *SpanBatchError", err, err)
			}
			return
		}
		again, err := DecodeSpanBatch(EncodeSpanBatch(spans))
		if err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !equalSpans(again, spans) {
			t.Fatalf("re-encoded batch decodes to different spans:\n got %+v\nwant %+v", again, spans)
		}
	})
}

// TestSpanBatchEdgeCases round-trips the values JSON loses or a tracer
// rarely makes.
func TestSpanBatchEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0x7ff8_0000_dead_beef)
	cases := map[string][]Span{
		"empty": nil,
		"open span": {
			{ID: 1, Kind: KindExec, Name: "exec job/0", StartUS: 10, DurUS: 5},
			{ID: 2, Parent: 1, Kind: KindRun, Name: "run", StartUS: 12, DurUS: 3, Open: true},
		},
		"no attributes": {{ID: 7, Parent: 3, Kind: KindWindow, Name: "window 1", StartUS: 1, DurUS: 0}},
		"string and number": {{ID: 1, Kind: KindEpoch, Name: "epoch 1", Attrs: []Attr{
			{Key: "both", Str: "s", Num: 2.5},
			{Key: "both-num", Str: "s", Num: -2.5, IsNum: true},
			{Key: "empty-num", IsNum: true},
			{Key: "", Str: ""},
		}}},
		"float bits": {{ID: 1, Kind: KindWindow, Name: "w", Attrs: []Attr{
			{Key: "nan", Num: math.NaN(), IsNum: true},
			{Key: "payload-nan", Num: payloadNaN, IsNum: true},
			{Key: "neg-zero", Num: negZero, IsNum: true},
			{Key: "inf", Num: math.Inf(1), IsNum: true},
			{Key: "neg-inf", Num: math.Inf(-1), IsNum: true},
			{Key: "tiny", Num: math.SmallestNonzeroFloat64, IsNum: true},
		}}},
		"negative and extreme times": {
			{ID: 1, Kind: KindRun, Name: "a", StartUS: -1_700_000_000_000_000, DurUS: 40},
			{ID: 2, Kind: KindRun, Name: "b", StartUS: math.MaxInt64, DurUS: math.MinInt64},
			{ID: 3, Kind: KindRun, Name: "c", StartUS: math.MinInt64, DurUS: -1},
			{ID: 4, Kind: KindRun, Name: "d", StartUS: -3},
		},
		"extreme ids": {
			{ID: math.MaxUint64, Parent: math.MaxUint64 - 1, Kind: "", Name: ""},
			{ID: 0, Parent: 0, Kind: KindJob, Name: "root"},
		},
		"non-ASCII": {{ID: 1, Kind: "фаза", Name: "épоch ⏱ 核心", Attrs: []Attr{
			{Key: "ключ", Str: "温度 °C"},
			{Key: "bad utf-8", Str: "\xff\xfe"},
		}}},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeSpanBatch(EncodeSpanBatch(want))
			if err != nil {
				t.Fatal(err)
			}
			if !equalSpans(got, want) {
				t.Fatalf("round trip changed the spans:\n got %+v\nwant %+v", got, want)
			}
		})
	}
	// Decoded spans share no attribute storage: growing one span's
	// attributes must not touch the next span's.
	two := []Span{
		{ID: 1, Attrs: []Attr{Num("a", 1)}},
		{ID: 2, Attrs: []Attr{Num("b", 2)}},
	}
	got, err := DecodeSpanBatch(EncodeSpanBatch(two))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got[0].Attrs, Num("c", 3))
	if got[1].Attrs[0].Key != "b" {
		t.Fatalf("append to span 0's attributes overwrote span 1's: %+v", got[1].Attrs)
	}
}

// claimBatch builds a header that claims the given counts over too few
// bytes: version, nstrings, then (if nstrings is 0) nspans and nattrs.
func claimBatch(counts ...uint64) []byte {
	b := []byte{spanBatchVersion}
	for _, n := range counts {
		b = binary.AppendUvarint(b, n)
	}
	return append(b, 0) // one byte of padding, far short of any claim
}

// TestDecodeSpanBatchRejects feeds malformed batches: each must fail with a
// *SpanBatchError, and the ones that claim more items than their
// bytes can hold must fail before allocating for them.
func TestDecodeSpanBatchRejects(t *testing.T) {
	good := EncodeSpanBatch([]Span{{ID: 1, Kind: "k", Name: "n", StartUS: 5, DurUS: 1,
		Attrs: []Attr{Num("x", 1.5), Str("y", "z")}}})
	wrongVersion := append([]byte{spanBatchVersion + 1}, good[1:]...)
	cases := map[string]struct {
		in   []byte
		want string
	}{
		"nil":                    {nil, "missing version"},
		"wrong version":          {wrongVersion, "unknown version 2"},
		"trailing byte":          {append(append([]byte(nil), good...), 0), "trailing bytes"},
		"2^40 spans in 10 bytes": {claimBatch(0, 1<<40, 0), "need more than"},
		"2^20 spans":             {claimBatch(0, 1<<20, 0), "need more than"},
		"2^20 attributes":        {claimBatch(0, 0, 1<<20), "need more than"},
		"2^40 strings":           {claimBatch(1 << 40), "need more than"},
		"2^30-byte string":       {claimBatch(1, 1<<30), "exceeds"},
		"overlong varint":        {[]byte{spanBatchVersion, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}, "bad string count varint"},
		"unused attributes":      {[]byte{spanBatchVersion, 0, 0, 1, 0, 0}, "not in any span"},
		"string index":           {[]byte{spanBatchVersion, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0}, "kind index 0 outside the 0-string table"},
		"span flags":             {[]byte{spanBatchVersion, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 2, 0}, "unknown span flags"},
		"attribute tag":          {[]byte{spanBatchVersion, 1, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0, 8}, "unknown attribute tag"},
		"attributes past head":   {[]byte{spanBatchVersion, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1}, "claims 1 attributes"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var spans []Span
			var err error
			if n := allocBytes(func() { spans, err = DecodeSpanBatch(tc.in) }); n > 16<<10 {
				t.Errorf("decoding %d bytes allocated %d bytes", len(tc.in), n)
			}
			var be *SpanBatchError
			if !errors.As(err, &be) {
				t.Fatalf("got %v (%T), want a *SpanBatchError", err, err)
			}
			if spans != nil {
				t.Errorf("failed decode returned %d spans", len(spans))
			}
			if !strings.Contains(be.Reason, tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A proper prefix of a batch is a truncated batch: every prefix of a
	// cut batch, and every 61st of a real run's (each decode reads up to
	// the cut, so all 13k would cost seconds under -race).
	for _, tc := range []struct {
		batch  []byte
		stride int
	}{{EncodeSpanBatch(cutSpans()), 1}, {EncodeSpanBatch(recordedBatch(t)), 61}} {
		for n := 0; n < len(tc.batch); n += tc.stride {
			var be *SpanBatchError
			if _, err := DecodeSpanBatch(tc.batch[:n]); !errors.As(err, &be) {
				t.Fatalf("batch truncated to %d of %d bytes: got %v, want a *SpanBatchError", n, len(tc.batch), err)
			}
		}
	}
}

// BenchmarkSpanBatchCodec encodes and decodes one recorded example-tournament
// run's span batch, beside encoding/json on the same spans (the format it
// replaced on the cluster wire).
func BenchmarkSpanBatchCodec(b *testing.B) {
	spans := recordedBatch(b)
	batch := EncodeSpanBatch(spans)
	js, err := json.Marshal(spans)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("binary/encode", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(batch)), "bytes/batch")
		for i := 0; i < b.N; i++ {
			EncodeSpanBatch(spans)
		}
	})
	b.Run("binary/decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeSpanBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/marshal", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(js)), "bytes/batch")
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(spans); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json/unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []Span
			if err := json.Unmarshal(js, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
