package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/rl"
	"repro/internal/telemetry"
)

// ErrNotArchived is returned when a job has no archive.
var ErrNotArchived = errors.New("durable: job not archived")

// DefaultTraceKeep bounds how many jobs an archive retains when the caller
// passes a non-positive keep count.
const DefaultTraceKeep = 64

// namePattern is the form of an archived job's name and of a checkpoint's
// name, both of which become file names: safe as a path component and as an
// HTTP path segment. validName checks it.
const namePattern = `^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`

// validName reports whether s matches namePattern: 1 to 128 bytes, the first
// an ASCII letter or digit and the rest letters, digits, '.', '_' or '-'.
// It guards archive file names against path traversal (job IDs are
// "job-%06d", but recovered journals may carry arbitrary strings). It is
// written out rather than compiled from the pattern, whose bounded
// repetition costs every binary importing this package 0.4–1 ms and
// ~118 KB at init.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// Archive keeps one payload per finished job as a file <prefix><job>.jsonl
// under its directory, so the payload outlives the process that ran the
// job: a job restored from the journal after a restart is served from it.
// It prunes itself to the newest keep jobs (job IDs sort chronologically),
// keeping disk usage bounded however long the server runs.
type Archive[T any] struct {
	mu     sync.Mutex
	dir    string
	prefix string
	keep   int
	encode func(io.Writer, T) error
	decode func(io.Reader) (T, error)
}

// OpenTraces opens (creating if needed) the span-trace archive under dir:
// trace-<job>.jsonl, one span per line, retaining the newest keep jobs
// (DefaultTraceKeep when keep <= 0).
func OpenTraces(dir string, keep int) (*Archive[[]telemetry.Span], error) {
	return openArchive(dir, "trace-", keep, telemetry.WriteSpansJSONL, telemetry.DecodeSpansJSONL)
}

// OpenLearning opens (creating if needed) the learning-curve archive under
// dir: learning-<job>.jsonl, one rl.RunCurve per line, with the same
// retention as OpenTraces.
func OpenLearning(dir string, keep int) (*Archive[*rl.CurveSet], error) {
	encode := func(w io.Writer, cs *rl.CurveSet) error { return cs.WriteJSONL(w) }
	return openArchive(dir, "learning-", keep, encode, rl.DecodeCurvesJSONL)
}

func openArchive[T any](dir, prefix string, keep int, encode func(io.Writer, T) error, decode func(io.Reader) (T, error)) (*Archive[T], error) {
	if keep <= 0 {
		keep = DefaultTraceKeep
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: open archive: %w", err)
	}
	return &Archive[T]{dir: dir, prefix: prefix, keep: keep, encode: encode, decode: decode}, nil
}

func (a *Archive[T]) path(job string) string {
	return filepath.Join(a.dir, a.prefix+job+".jsonl")
}

// Save archives one job's payload atomically (write-temp + rename) and
// prunes the oldest archives past the retention bound.
func (a *Archive[T]) Save(job string, v T) error {
	if !validName(job) {
		return fmt.Errorf("durable: bad archive job name %q", job)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	path := a.path(job)
	if err := a.write(path+".tmp", v); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("durable: archive %s%s: %w", a.prefix, job, err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		os.Remove(path + ".tmp")
		return fmt.Errorf("durable: archive %s%s: %w", a.prefix, job, err)
	}
	for jobs := a.listLocked(); len(jobs) > a.keep; jobs = jobs[1:] {
		os.Remove(a.path(jobs[0]))
	}
	return nil
}

func (a *Archive[T]) write(path string, v T) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.encode(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load reads back one job's payload (ErrNotArchived when absent).
func (a *Archive[T]) Load(job string) (T, error) {
	var zero T
	if !validName(job) {
		return zero, ErrNotArchived
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	f, err := os.Open(a.path(job))
	if errors.Is(err, fs.ErrNotExist) {
		return zero, ErrNotArchived
	}
	if err != nil {
		return zero, fmt.Errorf("durable: load %s%s: %w", a.prefix, job, err)
	}
	defer f.Close()
	v, err := a.decode(f)
	if err != nil {
		return zero, fmt.Errorf("durable: load %s%s: %w", a.prefix, job, err)
	}
	return v, nil
}

// Delete removes one job's archive (idempotent; a no-op on a nil archive).
func (a *Archive[T]) Delete(job string) error {
	if a == nil || !validName(job) {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := os.Remove(a.path(job)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: delete %s%s: %w", a.prefix, job, err)
	}
	return nil
}

// List returns the archived jobs, oldest first.
func (a *Archive[T]) List() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.listLocked()
}

// listLocked lists the archived jobs in lexicographic order, which is age
// order for zero-padded job IDs. Callers hold a.mu.
func (a *Archive[T]) listLocked() []string {
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil
	}
	var jobs []string
	for _, e := range entries {
		if job, ok := strings.CutPrefix(e.Name(), a.prefix); ok {
			if job, ok = strings.CutSuffix(job, ".jsonl"); ok {
				jobs = append(jobs, job)
			}
		}
	}
	sort.Strings(jobs)
	return jobs
}
