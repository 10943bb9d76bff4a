package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/telemetry"
)

// durableJobs is how many jobs durableLayers journals and archives.
const durableJobs = 5

// durableLayers measures the durable layer from outside, in the benchmark
// process: it journals durableJobs copies of one job's lifecycle the way a
// -data-dir server does — a submit record, one fsynced commit per cell row,
// a finish record — and archives the job's span trace through the durable
// trace store. The WAL numbers come from the durable package's own metrics,
// the ones a server exposes on /metrics. No workload runs a -data-dir server
// in its timed window: the fsync traffic made the hypervisor steal up to a
// quarter of the guest's CPU and the end-to-end figures unsteady.
func durableLayers(dir string, spec []byte, rows []any, spans []telemetry.Span) (map[string]float64, error) {
	before, err := selfMetrics()
	if err != nil {
		return nil, err
	}
	j, err := durable.OpenJournal(filepath.Join(dir, "jobs"), durable.Options{})
	if err != nil {
		return nil, err
	}
	defer j.Close()
	traceDir := filepath.Join(dir, "traces")
	ts, err := durable.OpenTraces(traceDir, durable.DefaultTraceKeep)
	if err != nil {
		return nil, err
	}
	cellRows := make([]json.RawMessage, len(rows))
	for i, r := range rows {
		if cellRows[i], err = json.Marshal(r); err != nil {
			return nil, err
		}
	}
	for n := 1; n <= durableJobs; n++ {
		id := fmt.Sprintf("job-%06d", n)
		recs := []durable.Record{{Kind: durable.KindSubmit, Job: id, Spec: spec, TotalCells: len(rows), SubmittedAt: time.Now()}}
		for i, raw := range cellRows {
			recs = append(recs, durable.Record{Kind: durable.KindCell, Job: id, Cell: i, Row: raw})
		}
		recs = append(recs, durable.Record{Kind: durable.KindFinish, Job: id, State: "done", FinishedAt: time.Now()})
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				return nil, err
			}
		}
		if err := ts.Save(id, spans); err != nil {
			return nil, err
		}
	}
	after, err := selfMetrics()
	if err != nil {
		return nil, err
	}
	var archived int64
	for _, id := range ts.List() {
		if fi, err := os.Stat(filepath.Join(traceDir, "trace-"+id+".jsonl")); err == nil {
			archived += fi.Size()
		}
	}
	bs, _, _ := histDelta(before, after, "durable_wal_fsync_seconds", nil)
	return map[string]float64{
		"durable.wal_records_per_job": counterDelta(before, after, "durable_wal_records_total", nil) / durableJobs,
		"durable.wal_kb_per_job":      counterDelta(before, after, "durable_wal_bytes_total", nil) / 1024 / durableJobs,
		"durable.fsync_ms_p50":        1000 * histQuantile(0.5, bs),
		"durable.archive_kb_per_job":  float64(archived) / 1024 / durableJobs,
	}, nil
}

// selfMetrics reads the benchmark process's own metrics registry.
func selfMetrics() (promSet, error) {
	var buf bytes.Buffer
	if err := telemetry.WritePrometheus(&buf, telemetry.Default()); err != nil {
		return nil, err
	}
	return parseProm(buf.String()), nil
}
