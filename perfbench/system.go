package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// jobSample is what the client observed of one server job.
type jobSample struct {
	key     string // the output key its digest is checked under
	id      string
	latency time.Duration // submit until the result bytes arrived
	cells   int
	ok      bool
	err     string

	submit, result, finishToResult time.Duration
	polls                          int

	// Traced runs only: the job's span trace, its size, its decision-event
	// count, one timed /metrics scrape and its tournament rows' decision
	// epochs.
	spans      []telemetry.Span
	traceBytes int
	events     int
	scrape     time.Duration
	epochs     []int
}

// snapshot is the server-side state read at the edges of a timed window.
type snapshot struct {
	cpuS  float64 // user+system CPU of every server process
	front promSet // the process serving the job API
	sim   promSet // the processes executing cells
}

// system is one running instance of the system under test.
type system interface {
	// unit runs one closed-loop unit of work: one job.
	unit(ctx context.Context, traced bool) jobSample
	snapshot(ctx context.Context) (snapshot, error)
	peakRSSMB() float64
	// stop ends the system and waits for every process or goroutine it
	// started; graceful=false is for set-up-only instances.
	stop(graceful bool)
}

// pollEvery is the client's job-status polling period.
const pollEvery = 5 * time.Millisecond

// httpSystem is a thermserved deployment: one standalone server, or a
// coordinator with its workers.
type httpSystem struct {
	front   *server
	workers []*server
	client  *http.Client
	work    func(ctx context.Context, s *httpSystem, traced bool) jobSample
}

func newClient() *http.Client {
	return &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
}

func (s *httpSystem) unit(ctx context.Context, traced bool) jobSample {
	return s.work(ctx, s, traced)
}

func (s *httpSystem) processes() []*server { return append([]*server{s.front}, s.workers...) }

func (s *httpSystem) stop(graceful bool) {
	// Workers first, so the coordinator never sees them as lost mid-run.
	for _, w := range s.workers {
		w.stop(graceful)
	}
	s.front.stop(graceful)
	s.client.CloseIdleConnections()
}

func (s *httpSystem) snapshot(ctx context.Context) (snapshot, error) {
	var snap snapshot
	for _, p := range s.processes() {
		cpu, err := procCPUSeconds(p.pid())
		if err != nil {
			return snap, err
		}
		snap.cpuS += cpu
	}
	front, err := s.scrape(ctx, s.front)
	if err != nil {
		return snap, err
	}
	snap.front, snap.sim = front, front
	if len(s.workers) > 0 {
		snap.sim = nil
		for _, w := range s.workers {
			m, err := s.scrape(ctx, w)
			if err != nil {
				return snap, err
			}
			snap.sim = append(snap.sim, m...)
		}
	}
	return snap, nil
}

func (s *httpSystem) scrape(ctx context.Context, p *server) (promSet, error) {
	code, body, err := s.do(ctx, http.MethodGet, p.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	return parseProm(string(body)), nil
}

func (s *httpSystem) peakRSSMB() float64 {
	var t float64
	for _, p := range s.processes() {
		if v, err := procPeakRSSMB(p.pid()); err == nil {
			t += v
		}
	}
	return t
}

func (s *httpSystem) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// jobStatus is the subset of the job snapshot the client reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Progress struct {
		TotalCells  int `json:"total_cells"`
		DoneCells   int `json:"done_cells"`
		FailedCells int `json:"failed_cells"`
	} `json:"progress"`
	FinishedAt time.Time `json:"finished_at"`
}

// httpJob is one job's request plan: where to submit, where its output is
// read from, and how the output bytes are reduced to the digest that is
// checked against the reference.
type httpJob struct {
	key        string
	submitPath string
	body       []byte
	resultPath string // %s is the job id
	digest     func([]byte) (string, error)
	check      func(key, digest string) error
}

// runJob submits one job, polls it to a terminal state, fetches its output
// and checks it. Any failure is recorded on the sample, never returned: it
// counts against job_ok_frac.
func (s *httpSystem) runJob(ctx context.Context, j httpJob, traced bool) jobSample {
	js := jobSample{key: j.key}
	fail := func(format string, args ...any) jobSample {
		js.ok, js.err = false, fmt.Sprintf(format, args...)
		return js
	}
	t0 := time.Now()
	code, body, err := s.do(ctx, http.MethodPost, s.front.url+j.submitPath, j.body)
	js.submit = time.Since(t0)
	if err != nil || code != http.StatusAccepted {
		return fail("submit %s: %d %v %s", j.key, code, err, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail("submit %s: %v", j.key, err)
	}
	js.id = st.ID
	for st.State != "done" && st.State != "failed" && st.State != "cancelled" {
		time.Sleep(pollEvery)
		code, body, err = s.do(ctx, http.MethodGet, s.front.url+"/v1/jobs/"+js.id, nil)
		js.polls++
		if err != nil || code != http.StatusOK {
			return fail("poll %s: %d %v", js.id, code, err)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fail("poll %s: %v", js.id, err)
		}
	}
	if st.State != "done" || st.Progress.FailedCells != 0 {
		return fail("job %s (%s) ended %s with %d failed cells: %s", js.id, j.key, st.State, st.Progress.FailedCells, st.Error)
	}
	t1 := time.Now()
	code, body, err = s.do(ctx, http.MethodGet, s.front.url+fmt.Sprintf(j.resultPath, js.id), nil)
	now := time.Now()
	js.result, js.latency = now.Sub(t1), now.Sub(t0)
	js.finishToResult = now.Sub(st.FinishedAt)
	js.cells = st.Progress.TotalCells
	if err != nil || code != http.StatusOK {
		return fail("result %s: %d %v", js.id, code, err)
	}
	d, err := j.digest(body)
	if err != nil {
		return fail("result %s: %v", js.id, err)
	}
	if err := j.check(j.key, d); err != nil {
		return fail("job %s: %v", js.id, err)
	}
	js.ok = true
	if traced {
		if err := s.collectTrace(ctx, &js); err != nil {
			return fail("trace %s: %v", js.id, err)
		}
	}
	return js
}

// collectTrace fetches the surfaces the traced run reads for a finished job:
// its span trace, its decision events and one /metrics scrape.
func (s *httpSystem) collectTrace(ctx context.Context, js *jobSample) error {
	code, body, err := s.do(ctx, http.MethodGet, s.front.url+"/v1/jobs/"+js.id+"/trace?format=jsonl", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET trace: %d %v", code, err)
	}
	js.traceBytes = len(body)
	if js.spans, err = telemetry.DecodeSpansJSONL(bytes.NewReader(body)); err != nil {
		return err
	}
	code, body, err = s.do(ctx, http.MethodGet, s.front.url+"/v1/jobs/"+js.id+"/events", nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("GET events: %d %v", code, err)
	}
	js.events = bytes.Count(body, []byte("\n"))
	t := time.Now()
	if _, err := s.scrape(ctx, s.front); err != nil {
		return err
	}
	js.scrape = time.Since(t)
	return nil
}

// jobTTL is how long a finished job stays in a server's store. The client
// reads everything it needs from a job within milliseconds of its finish,
// and with the default hour-long TTL resident memory would grow with the
// number of jobs a run happened to complete rather than reflect the
// workload.
const jobTTL = 300 * time.Millisecond

// startStandalone boots one in-memory thermserved in its default standalone
// role.
func startStandalone(ctx context.Context, b *bench) (*httpSystem, error) {
	srv, err := startServer(ctx, b.serverBin, b.tmp, false, "-workers", strconv.Itoa(b.nproc), "-ttl", jobTTL.String())
	if err != nil {
		return nil, err
	}
	return &httpSystem{client: newClient(), front: srv}, nil
}

// clusterWorkers is the worker count of the tournament-cluster deployment;
// each runs one cell at a time.
const clusterWorkers = 2

// startCluster boots an in-memory coordinator, joins clusterWorkers workers
// over loopback and returns once the coordinator reports them all alive.
func startCluster(ctx context.Context, b *bench) (*httpSystem, error) {
	s := &httpSystem{client: newClient()}
	coord, err := startServer(ctx, b.serverBin, b.tmp, false, "-role", "coordinator", "-workers", strconv.Itoa(b.nproc), "-ttl", jobTTL.String())
	if err != nil {
		return nil, err
	}
	s.front = coord
	for i := 0; i < clusterWorkers; i++ {
		w, err := startServer(ctx, b.serverBin, b.tmp, true, "-role", "worker", "-join", coord.url, "-capacity", "1")
		if err != nil {
			s.stop(false)
			return nil, err
		}
		s.workers = append(s.workers, w)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, body, err := s.do(ctx, http.MethodGet, coord.url+"/v1/cluster/status", nil)
		var st struct {
			Alive int `json:"alive"`
		}
		if err == nil && code == http.StatusOK && json.Unmarshal(body, &st) == nil && st.Alive == clusterWorkers {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop(false)
			return nil, fmt.Errorf("cluster: %d workers alive after 20s (%d %v)", st.Alive, code, err)
		}
		time.Sleep(time.Millisecond)
	}
}
