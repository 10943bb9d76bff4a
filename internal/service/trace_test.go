package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/campaign"
	"repro/internal/durable"
	"repro/internal/golden"
)

// TestPooledTraceExportsPinned: a one-worker pool runs the example
// tournament's runs in plan order, so its trace has the same span IDs,
// names and attributes on every run; only wall-clock times differ. With
// those zeroed, the job's /trace exports, JSONL and Chrome, hash to the
// digests pinned in testdata/digests.json, and so does its /learning body.
// Its -data-dir trace archive holds the JSONL export's bytes.
func TestPooledTraceExportsPinned(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "examples", "tournament", "experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "traces")
	traces, err := durable.OpenTraces(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(0)
	pool := NewPool(store, 1)
	pool.SetArchives(traces, nil)
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(Spec{Experiment: campaign.Experiment, Campaign: doc})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, pool, job.ID); final.State != StateDone {
		t.Fatalf("tournament finished %s: %s", final.State, final.Error)
	}
	srv := NewServer(store, pool)
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	jsonl := get("/trace?format=jsonl")
	pins := golden.Open(t, filepath.Join("testdata", "digests.json"))
	pins.Check(t, "tournament/trace-jsonl", zeroJSONLTimes(jsonl))
	pins.Check(t, "tournament/trace-chrome", zeroChromeTimes(t, get("/trace?format=chrome")))
	pins.Check(t, "tournament/learning", get("/learning"))
	archived, err := os.ReadFile(filepath.Join(dir, "trace-"+job.ID+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(archived, jsonl) {
		t.Errorf("trace archive (%d bytes) differs from the /trace JSONL export (%d bytes)", len(archived), len(jsonl))
	}
}

// jsonlTimes matches a span's wall-clock fields in the JSONL export.
var jsonlTimes = regexp.MustCompile(`"(start_us|dur_us)":-?[0-9]+`)

// zeroJSONLTimes zeroes every span's start_us and dur_us.
func zeroJSONLTimes(b []byte) []byte {
	return jsonlTimes.ReplaceAll(b, []byte(`"$1":0`))
}

// zeroChromeTimes zeroes every Chrome trace event's ts and dur. The
// exporter orders events by ts, so the span events are put back in span-ID
// order after the metadata events.
func zeroChromeTimes(t *testing.T, b []byte) []byte {
	t.Helper()
	var trace struct {
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatal(err)
	}
	type event struct {
		spanID uint64
		fields map[string]json.RawMessage
	}
	events := make([]event, len(trace.TraceEvents))
	for i, ev := range trace.TraceEvents {
		for _, k := range []string{"ts", "dur"} {
			if _, ok := ev[k]; ok {
				ev[k] = json.RawMessage("0")
			}
		}
		var args struct {
			SpanID uint64 `json:"span_id"`
		}
		if raw, ok := ev["args"]; ok {
			if err := json.Unmarshal(raw, &args); err != nil {
				t.Fatal(err)
			}
		}
		events[i] = event{args.SpanID, ev}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].spanID < events[j].spanID })
	for i, ev := range events {
		trace.TraceEvents[i] = ev.fields
	}
	out, err := json.Marshal(trace)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
