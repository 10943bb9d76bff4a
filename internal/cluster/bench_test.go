package cluster

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// BenchmarkClusterDispatch measures coordinator dispatch throughput: a b.N-cell
// campaign sharded over three in-process capacity-8 workers whose cells return
// instantly, so ns/op is the per-cell cost of the full round trip — acquire a
// slot, post the assignment, the worker's answer with the result, decode and
// commit.
func BenchmarkClusterDispatch(b *testing.B) {
	// Registration/heartbeat logs interleave with the benchmark's result
	// line and break `go test -bench` output parsing; silence them.
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.DiscardHandler))
	b.Cleanup(func() { slog.SetDefault(prev) })

	tc := startTestCluster(b, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(b.N, 0))
	})
	for i := 0; i < 3; i++ {
		tc.addWorker(8, stubExecutor(0))
	}
	b.ResetTimer()
	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, 10*time.Minute)
	b.StopTimer()
	if final.State != service.StateDone {
		b.Fatalf("bench job finished %s: %s", final.State, final.Error)
	}
	if final.Progress.DoneCells != b.N {
		b.Fatalf("dispatched %d cells, want %d", final.Progress.DoneCells, b.N)
	}
}

// countingTransport counts the response bytes of the workers' assign route,
// the results the coordinator reads.
type countingTransport struct {
	next http.RoundTripper
	read *atomic.Int64
}

func (t countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.next.RoundTrip(r)
	if err == nil && strings.HasSuffix(r.URL.Path, "/cluster/v2/assign") {
		resp.Body = countingBody{resp.Body, t.read}
	}
	return resp, err
}

// countingBody adds the bytes read through it to n.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// BenchmarkClusterSpanDispatch is BenchmarkClusterDispatch with a real span
// batch on every result: each cell's executor records one example-tournament
// run's spans (recordedRun, 104 spans, less its exec root) under the
// worker's exec span, so ns/op adds the worker's encode and the
// coordinator's decode and import of a typical batch. payload-B/cell is the
// result bytes the coordinator reads per cell.
func BenchmarkClusterSpanDispatch(b *testing.B) {
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.DiscardHandler))
	b.Cleanup(func() { slog.SetDefault(prev) })

	var run []telemetry.Span
	for _, sp := range recordedBatch(b) {
		if sp.Kind != telemetry.KindExec {
			run = append(run, sp)
		}
	}
	exec := func(ctx context.Context, spec service.Spec, cell int, _ json.RawMessage) (json.RawMessage, error) {
		tr, parent := telemetry.SpanFromContext(ctx)
		tr.Import(parent, run)
		return json.Marshal(stubRow(cell))
	}
	var read atomic.Int64
	tc := startTestCluster(b, testClusterConfig(), func(_ *service.Store, p *service.Pool) {
		p.SetPlanner(stubPlanner(b.N, 0))
	})
	tc.coord.client.Transport = countingTransport{tc.coord.client.Transport, &read}
	for i := 0; i < 3; i++ {
		tc.addWorker(8, exec)
	}
	b.ResetTimer()
	final := tc.submitAndWait(service.Spec{Experiment: "suite", Quick: true}, 10*time.Minute)
	b.StopTimer()
	if final.State != service.StateDone {
		b.Fatalf("bench job finished %s: %s", final.State, final.Error)
	}
	if final.Progress.DoneCells != b.N {
		b.Fatalf("dispatched %d cells, want %d", final.Progress.DoneCells, b.N)
	}
	if got := tc.metric("thermserved_cluster_spans_imported_total"); got < float64(b.N*(len(run)+1)) {
		b.Fatalf("imported %v spans, want >= %d", got, b.N*(len(run)+1))
	}
	b.ReportMetric(float64(read.Load())/float64(b.N), "payload-B/cell")
}
