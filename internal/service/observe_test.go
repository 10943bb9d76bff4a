package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/governor"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// emitterPlan builds a planner whose single cell records count epoch spans
// into the job's tracer, then blocks on release (so tests control when the
// job completes).
func emitterPlan(count int, release chan struct{}) Planner {
	return func(experiments.Config, string) ([]experiments.Cell, experiments.Assemble, error) {
		cell := experiments.Cell{Key: "emitter", Run: func(ctx context.Context) (any, error) {
			tr, span := telemetry.SpanFromContext(ctx)
			for i := 1; i <= count; i++ {
				emitEpoch(tr, span, telemetry.DecisionEvent{
					Epoch: i, TimeS: float64(i), State: i % 4, Action: i % 3,
					Reward: 0.5, Kind: telemetry.EventDecision,
				})
			}
			select {
			case <-release:
				return count, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}}
		return []experiments.Cell{cell}, func(rows []any) any { return rows }, nil
	}
}

// emitEpoch records ev as an epoch span under parent, as a traced run does.
func emitEpoch(tr *telemetry.Tracer, parent telemetry.SpanID, ev telemetry.DecisionEvent) {
	tr.Record(parent, telemetry.KindEpoch, fmt.Sprintf("epoch %d", ev.Epoch), 0, 0, ev.SpanAttrs()...)
}

// TestServerLiveStreamsBeforeCompletion is the SSE acceptance criterion:
// a client connected to /live receives at least one epoch snapshot while the
// job is still running, then the done event.
func TestServerLiveStreamsBeforeCompletion(t *testing.T) {
	store := NewStore(0)
	pool := NewPool(store, 2)
	release := make(chan struct{})
	pool.plan = emitterPlan(3, release)
	pool.Start()
	t.Cleanup(pool.Stop)
	srv := NewServer(store, pool)
	srv.livePoll = 10 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var epochs int
	var sawDoneEvent bool
	var firstEpochState State
readLoop:
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: epoch":
			epochs++
			if epochs == 1 {
				// The job must still be live: the cell is parked on release.
				if j, ok := store.Get(job.ID); ok {
					firstEpochState = j.State
				}
				close(release)
			}
		case line == "event: done":
			sawDoneEvent = true
		case strings.HasPrefix(line, "data: ") && sawDoneEvent:
			var final Job
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
				t.Fatalf("done payload: %v", err)
			}
			if !final.State.Terminal() {
				t.Errorf("done event with non-terminal state %s", final.State)
			}
			break readLoop
		case strings.HasPrefix(line, "data: ") && epochs > 0 && !sawDoneEvent:
			var ev telemetry.DecisionEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("epoch payload: %v", err)
			}
		}
	}
	if epochs < 1 {
		t.Fatal("no epoch events streamed")
	}
	if firstEpochState.Terminal() {
		t.Errorf("first epoch arrived after the job finished (state %s)", firstEpochState)
	}
	if !sawDoneEvent {
		t.Error("stream ended without a done event")
	}
}

// TestServerLiveClientDisconnect covers the satellite: a client dropping the
// SSE stream must not leak the handler goroutine or block the job.
func TestServerLiveClientDisconnect(t *testing.T) {
	store := NewStore(0)
	pool := NewPool(store, 2)
	release := make(chan struct{})
	pool.plan = emitterPlan(2, release)
	pool.Start()
	t.Cleanup(pool.Stop)
	srv := NewServer(store, pool)
	srv.livePoll = 10 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/jobs/"+job.ID+"/live", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one line to ensure the stream handler is live, then drop it.
	bufio.NewReader(resp.Body).ReadString('\n') //nolint:errcheck // any outcome is fine; we just poke the stream
	streams, _ := pool.Registry().Value("thermserved_live_streams")
	if streams != 1 {
		t.Fatalf("live stream gauge = %g, want 1", streams)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		streams, _ = pool.Registry().Value("thermserved_live_streams")
		if streams == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream handler leaked: gauge still %g", streams)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job must complete normally despite the vanished client.
	close(release)
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s after client disconnect", final.State)
	}
}

// TestWorkerPprofLabels verifies the satellite: cells run under pprof.Do with
// job and cell labels, observable from the cell's context.
func TestWorkerPprofLabels(t *testing.T) {
	pool, store := startPool(t, 1)
	pool.plan = stubPlan([]experiments.Cell{{Key: "labelled", Run: func(ctx context.Context) (any, error) {
		jobLabel, _ := pprof.Label(ctx, "job")
		cellLabel, _ := pprof.Label(ctx, "cell")
		return jobLabel + "|" + cellLabel, nil
	}}})
	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, pool, job.ID)
	rows, _ := store.Rows(job.ID)
	got := rows.([]any)[0].(string)
	if got != job.ID+"|labelled" {
		t.Errorf("pprof labels on worker = %q, want %q", got, job.ID+"|labelled")
	}
}

// simPlan builds a planner running one real (tiny) simulation per policy so
// service tests exercise the full tracing path without the cost of a suite.
func simPlan(policies []sim.Policy) Planner {
	return func(cfg experiments.Config, _ string) ([]experiments.Cell, experiments.Assemble, error) {
		cells := make([]experiments.Cell, len(policies))
		for i, pol := range policies {
			pol := pol
			cells[i] = experiments.Cell{
				Key: "sim/" + pol.Name(),
				Run: func(ctx context.Context) (any, error) {
					rc := cfg.Run
					if tr, span := telemetry.SpanFromContext(ctx); tr != nil {
						rc.Tracer, rc.TraceParent = tr, span
					}
					sp := workload.TachyonSpec(workload.Set3)
					sp.Iterations = 8
					out, err := sim.Run(rc, sp.Generate(), pol)
					if err != nil {
						return nil, err
					}
					return out.ExecTimeS, nil
				},
			}
		}
		return cells, func(rows []any) any { return rows }, nil
	}
}

// TestServerTraceEndpoint is the Chrome-trace acceptance criterion: a
// completed job's /trace?format=chrome is valid trace-event JSON whose spans
// nest job → cell → run → epoch, with state/action/reward on the epochs. It
// also covers the jsonl format, the archive fallback for a job with no live
// tracer, and eviction deleting the archive.
func TestServerTraceEndpoint(t *testing.T) {
	dir := t.TempDir()
	traces, err := durable.OpenTraces(filepath.Join(dir, "traces"), 0)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(time.Minute)
	pool := NewPool(store, 2)
	pool.SetArchives(traces, nil)
	pool.plan = simPlan([]sim.Policy{&sim.ProposedPolicy{}, sim.LinuxPolicy{Kind: governor.Ondemand}})
	pool.Start()
	t.Cleanup(pool.Stop)
	srv := NewServer(store, pool)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&parsed); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	// Index spans by ID so nesting is checkable through parent_id chains.
	type spanInfo struct {
		cat    string
		parent float64
	}
	byID := map[float64]spanInfo{}
	kinds := map[string]int{}
	var epochOK bool
	for _, ev := range parsed.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		kinds[ev.Cat]++
		id, _ := ev.Args["span_id"].(float64)
		parent, _ := ev.Args["parent_id"].(float64)
		byID[id] = spanInfo{cat: ev.Cat, parent: parent}
		if ev.Cat == telemetry.KindEpoch {
			if _, ok := ev.Args["state"]; !ok {
				t.Fatalf("epoch span without state attr: %v", ev.Args)
			}
			if _, ok := ev.Args["action"]; !ok {
				t.Fatalf("epoch span without action attr: %v", ev.Args)
			}
			if _, ok := ev.Args["reward"]; !ok {
				t.Fatalf("epoch span without reward attr: %v", ev.Args)
			}
			epochOK = true
		}
	}
	for _, kind := range []string{telemetry.KindJob, telemetry.KindCell, telemetry.KindRun, telemetry.KindEpoch} {
		if kinds[kind] == 0 {
			t.Fatalf("no %s spans in chrome trace (kinds: %v)", kind, kinds)
		}
	}
	if !epochOK {
		t.Fatal("no epoch args checked")
	}
	// Walk one epoch up its parent chain: epoch → run → cell → job.
	for id, info := range byID {
		if info.cat != telemetry.KindEpoch {
			continue
		}
		chain := []string{}
		for cur := id; cur != 0; {
			info := byID[cur]
			chain = append(chain, info.cat)
			cur = info.parent
		}
		want := []string{telemetry.KindEpoch, telemetry.KindRun, telemetry.KindCell, telemetry.KindJob}
		if fmt.Sprint(chain) != fmt.Sprint(want) {
			t.Fatalf("epoch ancestry = %v, want %v", chain, want)
		}
		break
	}

	// JSONL format round-trips through the telemetry decoder.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	spans, err := telemetry.DecodeSpansJSONL(resp2.Body)
	if err != nil || len(spans) == 0 {
		t.Fatalf("jsonl export: %d spans, err %v", len(spans), err)
	}

	// Bad format answers 400.
	resp3, _ := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace?format=svg")
	resp3.Body.Close()
	if resp3.StatusCode != 400 {
		t.Errorf("bad format status %d, want 400", resp3.StatusCode)
	}

	// A job known only to the durable archive (e.g. restored after a restart
	// without a live tracer) is served from the archive fallback.
	if err := traces.Save("job-999999", spans); err != nil {
		t.Fatal(err)
	}
	resp4, err := http.Get(ts.URL + "/v1/jobs/job-999999/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	if resp4.StatusCode != 200 {
		t.Fatalf("archived trace status %d, want 200", resp4.StatusCode)
	}
	var archived map[string]any
	if err := json.NewDecoder(resp4.Body).Decode(&archived); err != nil {
		t.Fatalf("archived chrome trace invalid: %v", err)
	}

	// Evicting the job deletes its archive too; the endpoint then 404s.
	store.mu.Lock()
	store.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	store.mu.Unlock()
	if n := store.Sweep(); n != 1 {
		t.Fatalf("evicted %d jobs, want 1", n)
	}
	resp5, _ := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/trace")
	resp5.Body.Close()
	if resp5.StatusCode != 404 {
		t.Errorf("evicted job trace status %d, want 404", resp5.StatusCode)
	}
}

// TestFlightRecorderOnThermalRunaway is the flight-recorder acceptance
// criterion: a job whose simulation exceeds the thermal ceiling produces a
// flightrec dump file and a nonzero alert counter.
func TestFlightRecorderOnThermalRunaway(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(0)
	pool := NewPool(store, 1)
	pool.EnableFlightRecorder(dir, 50, time.Minute) // 50 C ceiling: every loaded run trips
	pool.plan = simPlan([]sim.Policy{sim.LinuxPolicy{Kind: governor.Performance}})
	pool.Start()
	t.Cleanup(pool.Stop)

	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}
	path := filepath.Join(dir, "flightrec-"+job.ID+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("flight dump missing: %v", err)
	}
	var dump struct {
		Job       string              `json:"job"`
		Anomalies []telemetry.Anomaly `json:"anomalies"`
		Spans     []telemetry.Span    `json:"spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("dump invalid: %v", err)
	}
	if dump.Job != job.ID {
		t.Errorf("dump job = %q", dump.Job)
	}
	if len(dump.Anomalies) == 0 || dump.Anomalies[0].Kind != telemetry.AnomalyThermalRunaway {
		t.Fatalf("anomalies = %+v", dump.Anomalies)
	}
	if dump.Anomalies[0].TempC <= 50 {
		t.Errorf("runaway temp %g not above ceiling", dump.Anomalies[0].TempC)
	}
	if len(dump.Spans) == 0 {
		t.Error("dump carries no span context")
	}
	if got, _ := pool.Registry().Value("flightrec_alerts_total", telemetry.L("kind", telemetry.AnomalyThermalRunaway)); got < 1 {
		t.Errorf("flightrec_alerts_total{kind=thermal_runaway} = %g, want >= 1", got)
	}
}

// TestStallWatchdog trips the stall anomaly on a job making no progress.
func TestStallWatchdog(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(0)
	pool := NewPool(store, 1)
	pool.EnableFlightRecorder(dir, 0, 200*time.Millisecond)
	release := make(chan struct{})
	pool.plan = stubPlan([]experiments.Cell{{Key: "stuck", Run: func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return 1, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}}})
	pool.Start()
	t.Cleanup(pool.Stop)

	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got, _ := pool.Registry().Value("flightrec_alerts_total", telemetry.L("kind", telemetry.AnomalyStall)); got >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stall never tripped")
		}
		time.Sleep(10 * time.Millisecond)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flightrec-"+job.ID+".json"))
	if err != nil {
		t.Fatalf("stall dump missing: %v", err)
	}
	if !strings.Contains(string(data), telemetry.AnomalyStall) {
		t.Error("dump does not mention the stall")
	}
	close(release)
	waitDone(t, pool, job.ID)
}

// TestTraceStoreEvictionHook covers archive deletion alongside job eviction:
// one hook drops the job's trace and learning-curve archives.
func TestTraceStoreEvictionHook(t *testing.T) {
	traces, err := durable.OpenTraces(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	learning, err := durable.OpenLearning(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	store := NewStore(time.Minute)
	pool := NewPool(store, 1)
	pool.SetArchives(traces, learning)
	pool.plan = stubPlan([]experiments.Cell{{Key: "quick", Run: func(context.Context) (any, error) { return 1, nil }}})
	pool.Start()
	t.Cleanup(pool.Stop)
	job, err := pool.Submit(Spec{Experiment: "suite", Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, pool, job.ID)
	if got := traces.List(); len(got) != 1 || got[0] != job.ID {
		t.Fatalf("archived traces = %v, want [%s]", got, job.ID)
	}
	// The stub cell samples no curves; archive some so eviction has a
	// learning archive to delete.
	curves := rl.NewCurveSet()
	curves.Add(rl.RunCurve{Policy: "proposed", Workload: "stub"})
	if err := learning.Save(job.ID, curves); err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	store.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
	store.mu.Unlock()
	store.Sweep()
	if got := traces.List(); len(got) != 0 {
		t.Errorf("evicted job's trace survived: %v", got)
	}
	if got := learning.List(); len(got) != 0 {
		t.Errorf("evicted job's learning curves survived: %v", got)
	}
}

// TestServerLiveResyncsAfterOverflow: an attached SSE client whose cursor
// goes stale while the job's bounded span ring overflows must resync at the
// oldest retained epoch — no panic, no duplicated epochs — and still receive
// the done event.
func TestServerLiveResyncsAfterOverflow(t *testing.T) {
	store := NewStore(0)
	pool := NewPool(store, 1)
	srv := NewServer(store, pool)
	srv.livePoll = 10 * time.Millisecond
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Drive the store directly so the test controls the tracer capacity
	// and exactly when the ring overflows relative to the client's drains.
	job := store.Create(Spec{Experiment: "suite", Quick: true}, 1)
	tracer := telemetry.NewTracer(8)
	store.Bind(job.ID, nil, tracer, nil)
	if err := store.Start(job.ID); err != nil {
		t.Fatal(err)
	}
	emit := func(from, to int) {
		for i := from; i <= to; i++ {
			emitEpoch(tracer, 0, telemetry.DecisionEvent{Epoch: i, Kind: telemetry.EventDecision})
		}
	}
	emit(1, 4)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var epochs []int
	var sawDone bool
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "epoch":
			var ev telemetry.DecisionEvent
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("epoch payload: %v", err)
			}
			epochs = append(epochs, ev.Epoch)
			if ev.Epoch == 4 {
				// Client is caught up at cursor 4; now blow past the ring
				// capacity (8) so its cursor goes stale, give the poller a
				// few ticks to drain the retained tail, then finish the job.
				go func() {
					emit(5, 104)
					time.Sleep(50 * time.Millisecond)
					store.Finish(job.ID, nil, nil, false)
				}()
			}
		case strings.HasPrefix(line, "data: ") && event == "done":
			sawDone = true
		}
		if sawDone {
			break
		}
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	seen := make(map[int]bool)
	for i, e := range epochs {
		if seen[e] {
			t.Fatalf("epoch %d delivered twice", e)
		}
		seen[e] = true
		if i > 0 && e <= epochs[i-1] {
			t.Fatalf("epochs out of order: %v", epochs)
		}
	}
	for _, e := range []int{1, 2, 3, 4, 104} {
		if !seen[e] {
			t.Fatalf("epoch %d missing (got %v)", e, epochs)
		}
	}
	// The resync point is the oldest retained event: 104 total recorded, ring
	// keeps 8, so nothing between 5 and 96 may appear.
	for e := range seen {
		if e > 4 && e < 97 {
			t.Fatalf("overwritten epoch %d was delivered; client did not resync (got %v)", e, epochs)
		}
	}
}
