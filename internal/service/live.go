package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// defaultLivePoll is how often the live stream drains the job's new epoch
// spans; tests shorten it to keep streaming assertions fast.
const defaultLivePoll = 250 * time.Millisecond

// handleLive streams the job's RL decision epochs over Server-Sent Events:
// one "epoch" event per epoch span its live tracer commits (data = the
// DecisionEvent JSON), then one "done" event carrying the final job snapshot
// when the job reaches a terminal state. Each poll decodes only the spans
// committed since the last one. Clients that lag behind the tracer's bound
// skip the overwritten epochs; disconnecting clients cost nothing beyond
// their own request goroutine, which exits on the next poll.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tracer, ok := s.store.Tracer(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return
	}
	if tracer == nil {
		writeError(w, http.StatusNotFound, "job %s has no live trace", id)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	done := s.store.Done(id)

	s.liveStreams.Add(1)
	defer s.liveStreams.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var cursor int64
	// drain forwards the decision events of the epoch spans committed since
	// the last poll; a write error means the client went away.
	drain := func() bool {
		spans, cur := tracer.Since(cursor)
		cursor = cur
		evs := telemetry.DecisionEvents(spans)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "event: epoch\ndata: %s\n\n", b); err != nil {
				return false
			}
		}
		if len(evs) > 0 {
			fl.Flush()
		}
		return true
	}
	tick := time.NewTicker(s.livePoll)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			drain()
			if job, ok := s.store.Get(id); ok {
				if b, err := json.Marshal(job); err == nil {
					fmt.Fprintf(w, "event: done\ndata: %s\n\n", b) //nolint:errcheck // client gone; nothing left to do
				}
			}
			fl.Flush()
			return
		case <-tick.C:
			if !drain() {
				return
			}
		}
	}
}

// handleTrace exports the job's span trace: ?format=chrome (default) renders
// the Chrome trace-event JSON that Perfetto and chrome://tracing load
// directly, ?format=jsonl the archival one-span-per-line form.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "chrome"
	}
	if format != "chrome" && format != "jsonl" {
		writeError(w, http.StatusBadRequest, "unknown trace format %q (want chrome or jsonl)", format)
		return
	}
	spans, ok := s.jobSpans(w, id)
	if !ok {
		return
	}
	switch format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s-trace.json", id))
		_ = telemetry.WriteChromeTrace(w, spans) //nolint:errcheck // client gone; nothing left to do
	case "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = telemetry.WriteSpansJSONL(w, spans) //nolint:errcheck // client gone; nothing left to do
	}
}

// jobSpans returns the span trace /trace exports and /events reads: a
// running job's snapshot so far (open spans marked), or, for a job restored
// after a restart with no live tracer, its durable archive. Evicting a job
// deletes its archive. On failure it writes the 404 or 500 itself and
// reports false.
func (s *Server) jobSpans(w http.ResponseWriter, id string) ([]telemetry.Span, bool) {
	if tracer, ok := s.store.Tracer(id); ok && tracer != nil {
		return tracer.Snapshot(), true
	}
	return archived(w, s.pool.traces, id, "trace")
}

// archived loads job id's payload from archive a for a job whose live state
// does not hold it. On failure it writes the 404 or 500 itself and reports
// false.
func archived[T any](w http.ResponseWriter, a *durable.Archive[T], id, what string) (T, bool) {
	if a == nil {
		var zero T
		writeError(w, http.StatusNotFound, "unknown job %s", id)
		return zero, false
	}
	v, err := a.Load(id)
	switch {
	case errors.Is(err, durable.ErrNotArchived):
		writeError(w, http.StatusNotFound, "no %s for job %s", what, id)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "load %s: %v", what, err)
	}
	return v, err == nil
}
