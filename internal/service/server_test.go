package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// startServer wires a store, pool and httptest server together.
func startServer(t *testing.T, workers int) (*httptest.Server, *Pool, *Store) {
	t.Helper()
	store := NewStore(0)
	pool := NewPool(store, workers)
	pool.Start()
	t.Cleanup(pool.Stop)
	ts := httptest.NewServer(NewServer(store, pool))
	t.Cleanup(ts.Close)
	return ts, pool, store
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestServerJobRoundTrip drives the full submit → poll → result flow the
// ISSUE's acceptance criterion describes, over real HTTP.
func TestServerJobRoundTrip(t *testing.T) {
	ts, _, _ := startServer(t, 4)

	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "suite", Quick: true}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if job.ID == "" || job.Progress.TotalCells != 8 {
		t.Fatalf("submit returned %+v", job)
	}

	// Result before completion is a conflict (unless the pool already won
	// the race, which quick cells can).
	var probe Job
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &probe); code != http.StatusOK {
		t.Fatalf("status poll: %d", code)
	}
	if !probe.State.Terminal() {
		// The job may finish between the poll and this fetch, so a 200 is
		// also legal; anything else is a bug.
		code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, nil)
		if code != http.StatusConflict && code != http.StatusOK {
			t.Errorf("early result fetch: status %d, want 409 or 200", code)
		}
	}

	// Poll to completion.
	deadline := time.Now().Add(2 * time.Minute)
	for !probe.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s (%+v)", probe.State, probe.Progress)
		}
		time.Sleep(20 * time.Millisecond)
		doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID, nil, &probe)
	}
	if probe.State != StateDone {
		t.Fatalf("job finished %s: %s", probe.State, probe.Error)
	}
	if probe.Progress.DoneCells != 8 || probe.WallClockS <= 0 {
		t.Errorf("final snapshot off: %+v", probe)
	}

	// Fetch and type-check the rows.
	var result struct {
		ID    string                 `json:"id"`
		State State                  `json:"state"`
		Rows  []experiments.SuiteRow `json:"rows"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+job.ID+"/result", nil, &result); code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if result.ID != job.ID || len(result.Rows) != 8 {
		t.Fatalf("result payload off: id=%s rows=%d", result.ID, len(result.Rows))
	}
	// Spot-check against the sequential runner: rows must be identical.
	seq, err := experiments.Suite(context.Background(), experiments.Config{Run: experiments.DefaultConfig().Run, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if result.Rows[i] != seq[i] {
			t.Errorf("row %d over HTTP differs from sequential: %+v vs %+v", i, result.Rows[i], seq[i])
		}
	}

	// The job shows up in the listing.
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Errorf("list: code %d, %d jobs", code, len(list.Jobs))
	}
}

func TestServerCancel(t *testing.T) {
	ts, pool, _ := startServer(t, 1)
	started := make(chan struct{})
	pool.plan = stubPlan([]experiments.Cell{
		{Key: "block", Run: func(ctx context.Context) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}},
		{Key: "never", Run: func(context.Context) (any, error) { return nil, nil }},
	})
	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "suite"}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	<-started
	var cancelled Job
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil, &cancelled); code != http.StatusAccepted {
		t.Fatalf("cancel: %d", code)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateCancelled {
		t.Errorf("state after cancel: %s", final.State)
	}
}

func TestServerErrorsAndHealth(t *testing.T) {
	ts, _, _ := startServer(t, 1)
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-000042", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-000042/result", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown result: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodDelete, ts.URL+"/v1/jobs/job-000042", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown cancel: %d, want 404", code)
	}
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "fig99"}, nil); code != http.StatusBadRequest {
		t.Errorf("bad experiment: %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", hz.StatusCode)
	}
}

func TestServerMetrics(t *testing.T) {
	ts, pool, _ := startServer(t, 2)
	pool.plan = stubPlan([]experiments.Cell{{Key: "one", Run: func(context.Context) (any, error) { return 1, nil }}})
	var job Job
	doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "suite"}, &job)
	waitDone(t, pool, job.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != telemetry.ContentType {
		t.Errorf("content type %q, want %q", got, telemetry.ContentType)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`thermserved_jobs{state="done"} 1`,
		"thermserved_jobs_submitted_total 1",
		"thermserved_cells_completed_total 1",
		fmt.Sprintf("thermserved_workers %d", pool.Workers()),
		"thermserved_workers_busy 0",
		"thermserved_queue_depth 0",
		"# TYPE thermserved_cell_run_seconds histogram",
		"thermserved_cell_run_seconds_count 1",
		`thermserved_cell_wait_seconds_bucket{le="+Inf"} 1`,
		`thermserved_http_requests_total{code="202",method="POST",route="/v1/jobs"} 1`,
		`thermserved_http_request_seconds_count{route="/v1/jobs"} 1`,
		"thermserved_http_in_flight 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q in:\n%s", want, body)
		}
	}
	// /metrics merges the process-wide default registry, so the HELP lines of
	// the sim/rl families appear once real simulations have run anywhere in
	// the test binary. The stub plan here runs none, so only assert the
	// exposition is parseable line-by-line: every non-comment line is
	// "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestServerEvents exercises the full decision-trace threading: a submitted
// job whose cell runs the RL controller over a two-application workload must
// yield a JSONL trace on GET /v1/jobs/{id}/events containing a q_reset event
// at the app switch.
func TestServerEvents(t *testing.T) {
	ts, pool, _ := startServer(t, 1)
	// The cell runs sim.Run under the config TracedConfig derives from its
	// context, as real cells do, which validates the whole chain: Submit →
	// the job's tracer → sim's decision feed → core.Controller → the epoch
	// spans /events reads.
	pool.plan = func(cfg experiments.Config, _ string) ([]experiments.Cell, experiments.Assemble, error) {
		cell := experiments.Cell{Key: "two-app", Run: func(ctx context.Context) (any, error) {
			seq := workload.NewSequence(workload.Tachyon(workload.Set1), workload.MPEGDec(workload.Set1))
			res, err := sim.Run(experiments.TracedConfig(ctx, cfg).Run, seq, &sim.ProposedPolicy{})
			if err != nil {
				return nil, err
			}
			return res.ExecTimeS, nil
		}}
		return []experiments.Cell{cell}, func(rows []any) any { return rows }, nil
	}

	var job Job
	if code := doJSON(t, http.MethodPost, ts.URL+"/v1/jobs", Spec{Experiment: "suite", Quick: true}, &job); code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	final := waitDone(t, pool, job.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s: %s", final.State, final.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Errorf("events content type %q", got)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(body.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("events body is empty")
	}
	resets := 0
	for i, line := range lines {
		var ev telemetry.DecisionEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d not valid JSON: %v (%q)", i, err, line)
		}
		if ev.Kind == telemetry.EventQReset {
			resets++
			if !ev.SwitchDetected {
				t.Error("q_reset event not flagged as a detected switch")
			}
		}
	}
	if resets == 0 {
		t.Errorf("no q_reset event in %d-line trace", len(lines))
	}

	// An unknown job 404s.
	if code := doJSON(t, http.MethodGet, ts.URL+"/v1/jobs/job-000042/events", nil, nil); code != http.StatusNotFound {
		t.Errorf("unknown job events: %d, want 404", code)
	}
}

// repeatA is an endless stream of the byte 'a'.
type repeatA struct{}

func (repeatA) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'a'
	}
	return len(p), nil
}

// unreadBody fails the test if anything reads it.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body of a request that declares more than the bound was read")
	return 0, io.EOF
}

// TestReadBodyRefusesDeclaredOversize: a body whose Content-Length exceeds
// the bound answers 413 before a byte of it is read, so an oversize request
// costs no memory.
func TestReadBodyRefusesDeclaredOversize(t *testing.T) {
	const limit = 1 << 10
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", unreadBody{t})
	r.ContentLength = limit + 1
	rec := httptest.NewRecorder()
	if body, ok := ReadBody(rec, r, "spec", limit); ok || body != nil {
		t.Fatalf("ReadBody accepted %d bytes", len(body))
	}
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Errorf("answered %d %s, want 413 with the body-too-large envelope", rec.Code, rec.Body)
	}
}

// TestServerBodiesBounded: every route that takes a body reads at most
// durable.MaxPayload bytes of it. One byte more answers 413, a body that
// ends early (the client hung up) answers 400, both with the JSON error
// envelope.
func TestServerBodiesBounded(t *testing.T) {
	store := NewStore(0)
	pool := NewPool(store, 1)
	cs, err := durable.OpenCheckpoints(filepath.Join(t.TempDir(), "checkpoints"))
	if err != nil {
		t.Fatal(err)
	}
	pool.SetCheckpoints(cs)
	srv := NewServer(store, pool)
	for _, route := range []string{"/v1/jobs", "/v1/campaigns", "/v1/checkpoints/big"} {
		for _, c := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"64 MiB + 1 byte", io.LimitReader(repeatA{}, durable.MaxPayload+1), http.StatusRequestEntityTooLarge},
			// What the server's body reader returns when the client hangs up
			// before its Content-Length is in.
			{"ends early", io.MultiReader(strings.NewReader(`{"experiment":"`),
				iotest.ErrReader(io.ErrUnexpectedEOF)), http.StatusBadRequest},
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, c.body))
			var envelope map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope["error"] == "" {
				t.Fatalf("%s body to %s answered %q, want a JSON error envelope (%v)", c.name, route, rec.Body, err)
			}
			if rec.Code != c.want {
				t.Errorf("%s body to %s answered %d (%s), want %d", c.name, route, rec.Code, envelope["error"], c.want)
			}
		}
	}
	if jobs := store.List(); len(jobs) != 0 {
		t.Fatalf("refused bodies created %d jobs", len(jobs))
	}
	if list := cs.List(); len(list) != 0 {
		t.Fatalf("refused bodies stored %d checkpoints", len(list))
	}
}
