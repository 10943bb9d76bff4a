package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Anomaly kinds the flight recorder distinguishes.
const (
	// AnomalyThermalRunaway: a sampled core temperature exceeded the
	// configured ceiling.
	AnomalyThermalRunaway = "thermal_runaway"
	// AnomalyNumeric: NaN or Inf appeared in the thermal or reliability
	// state.
	AnomalyNumeric = "numeric"
	// AnomalyStall: a running job made no epoch or cell progress within the
	// watchdog deadline.
	AnomalyStall = "stall"
	// AnomalyLeaseStorm: cluster mode saw a burst of lease reassignments —
	// work is bouncing between workers instead of completing.
	AnomalyLeaseStorm = "lease_storm"
	// AnomalyHeartbeatLoss: several workers were declared dead within a short
	// window — a network partition or a fleet-wide failure, not one bad node.
	AnomalyHeartbeatLoss = "heartbeat_loss"
)

// Anomaly describes one detected fault.
type Anomaly struct {
	// Kind is one of the Anomaly* constants.
	Kind string `json:"kind"`
	// Job and Cell locate the fault (Cell may name a policy/workload pair
	// for library-level runs).
	Job  string `json:"job,omitempty"`
	Cell string `json:"cell,omitempty"`
	// Detail is a human-readable description.
	Detail string `json:"detail"`
	// TimeS is the simulated time of detection, where applicable.
	TimeS float64 `json:"time_s,omitempty"`
	// TempC and Core identify a thermal-runaway reading.
	TempC float64 `json:"temp_c,omitempty"`
	Core  int     `json:"core,omitempty"`
}

// AnomalySink receives detected anomalies; *FlightRecorder implements it.
type AnomalySink interface {
	Trip(Anomaly)
}

// flight-recorder bounds: how much context each dump carries and how many
// anomalies are accumulated into one job's dump file.
const (
	flightDumpSpans  = 256
	flightDumpEvents = 256
	flightMaxDumps   = 16
)

// FlightRecorder is the anomaly "black box" of one job: when an anomaly
// trips, it dumps the newest spans and the decision events of the newest
// epoch spans — the causal context leading up to the fault — to
// <dir>/flightrec-<job>.json and increments the
// flightrec_alerts_total{kind} counter. Dumps accumulate per job (bounded),
// so a thermal runaway followed by a stall lands in one file. All methods
// are nil-receiver safe.
type FlightRecorder struct {
	mu        sync.Mutex
	dir       string
	job       string
	tracer    *Tracer
	reg       *Registry
	anomalies []Anomaly
	trips     int64
}

// flightDump is the on-disk schema of one flight-recorder file.
type flightDump struct {
	Job       string          `json:"job"`
	Anomalies []Anomaly       `json:"anomalies"`
	Spans     []Span          `json:"spans,omitempty"`
	Events    []DecisionEvent `json:"events,omitempty"`
}

// NewFlightRecorder builds a recorder dumping into dir. tracer supplies the
// dump context and may be nil; reg receives the alert counters (nil selects
// Default()).
func NewFlightRecorder(dir string, tracer *Tracer, reg *Registry) *FlightRecorder {
	if reg == nil {
		reg = Default()
	}
	return &FlightRecorder{dir: dir, tracer: tracer, reg: reg}
}

// SetJob names the job the recorder belongs to (used in the dump file name;
// set once the job ID is allocated).
func (f *FlightRecorder) SetJob(job string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.job = job
}

// Path returns the dump file path ("" before SetJob).
func (f *FlightRecorder) Path() string {
	if f == nil {
		return ""
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pathLocked()
}

func (f *FlightRecorder) pathLocked() string {
	if f.job == "" {
		return ""
	}
	return filepath.Join(f.dir, "flightrec-"+f.job+".json")
}

// Trips returns how many anomalies have tripped.
func (f *FlightRecorder) Trips() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.trips
}

// Trip records one anomaly: bump the alert counter, accumulate the anomaly,
// and (re)write the job's dump file with the newest span and decision-event
// context. Dump I/O failures are reported on the counter's side only — the
// simulation must never fail because its black box could not write.
func (f *FlightRecorder) Trip(a Anomaly) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.trips++
	if a.Job == "" {
		a.Job = f.job
	}
	f.reg.Counter("flightrec_alerts_total", "Anomalies detected by the flight recorder, by kind.",
		L("kind", a.Kind)).Inc()
	if len(f.anomalies) < flightMaxDumps {
		f.anomalies = append(f.anomalies, a)
	}
	f.dumpLocked()
}

// dumpLocked writes the accumulated anomalies plus trailing context
// atomically (write-temp + rename). Callers hold f.mu.
func (f *FlightRecorder) dumpLocked() {
	path := f.pathLocked()
	if path == "" {
		return
	}
	dump := flightDump{Job: f.job, Anomalies: f.anomalies}
	if f.tracer != nil {
		spans := f.tracer.Snapshot()
		dump.Events = DecisionEvents(spans)
		if len(dump.Events) > flightDumpEvents {
			dump.Events = dump.Events[len(dump.Events)-flightDumpEvents:]
		}
		if len(spans) > flightDumpSpans {
			spans = spans[len(spans)-flightDumpSpans:]
		}
		dump.Spans = spans
	}
	if err := WriteFileAtomic(path, dump); err != nil {
		f.reg.Counter("flightrec_dump_errors_total", "Flight-recorder dump files that failed to write.").Inc()
	}
}

// WriteFileAtomic marshals v as indented JSON and renames a temp file into
// place, so readers never observe a half-written dump. Shared by the per-job
// flight recorder and the cluster-level black box in internal/cluster.
func WriteFileAtomic(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("telemetry: flight dump rename: %w", err)
	}
	return nil
}
