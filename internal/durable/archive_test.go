package durable

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/rl"
	"repro/internal/telemetry"
)

func traceSpans(n int) []telemetry.Span {
	spans := make([]telemetry.Span, n)
	for i := range spans {
		spans[i] = telemetry.Span{
			ID: telemetry.SpanID(i + 1), Kind: telemetry.KindRun,
			Name: fmt.Sprintf("run %d", i), StartUS: int64(i * 100), DurUS: 50,
			Attrs: []telemetry.Attr{telemetry.Num("peak_c", 71.5)},
		}
	}
	return spans
}

func curveSet(n int) *rl.CurveSet {
	cs := rl.NewCurveSet()
	for i := 0; i < n; i++ {
		cs.Add(rl.RunCurve{Policy: "proposed", Workload: "face_rec", Seed: int64(i + 1),
			Points:  []rl.CurvePoint{{Epoch: 1, Reward: 1.0 / 3.0, Alpha: 0.87}, {Epoch: 2, Damage: 0.25}},
			Summary: rl.CurveSummary{Epochs: 2, ConvergeEpoch: 1, CoreDamage: []float64{0.25}, CoreDamageShare: []float64{1}}})
	}
	return cs
}

// TestArchive runs every archive case over both archive kinds: span traces
// and learning curves.
func TestArchive(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		archiveCases(t, OpenTraces, "trace-", traceSpans, func(s []telemetry.Span) any { return s })
	})
	t.Run("learning", func(t *testing.T) {
		archiveCases(t, OpenLearning, "learning-", curveSet, func(cs *rl.CurveSet) any { return cs.Curves() })
	})
}

// archiveCases checks one archive kind. payload(n) builds a payload of n
// items; view maps a payload to a value reflect.DeepEqual can compare.
func archiveCases[T any](t *testing.T, open func(string, int) (*Archive[T], error), prefix string, payload func(int) T, view func(T) any) {
	t.Run("round_trip", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "archive") // open creates it
		a, err := open(dir, 8)
		if err != nil {
			t.Fatal(err)
		}
		want := payload(3)
		if err := a.Save("job-000001", want); err != nil {
			t.Fatal(err)
		}
		// The on-disk layout is <prefix><job>.jsonl, so data dirs written
		// by earlier releases still load.
		if _, err := os.Stat(filepath.Join(dir, prefix+"job-000001.jsonl")); err != nil {
			t.Fatalf("archive file: %v", err)
		}
		got, err := a.Load("job-000001")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(view(got), view(want)) {
			t.Fatalf("round trip changed the payload:\n%+v\n%+v", view(got), view(want))
		}
	})
	t.Run("missing", func(t *testing.T) {
		a, err := open(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Load("job-000042"); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("missing archive: %v, want ErrNotArchived", err)
		}
	})
	t.Run("delete_idempotent", func(t *testing.T) {
		a, err := open(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Save("job-000001", payload(1)); err != nil {
			t.Fatal(err)
		}
		if err := a.Delete("job-000001"); err != nil {
			t.Fatal(err)
		}
		if err := a.Delete("job-000001"); err != nil {
			t.Fatalf("second delete: %v", err)
		}
		if _, err := a.Load("job-000001"); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("after delete: %v, want ErrNotArchived", err)
		}
	})
	t.Run("prune_oldest", func(t *testing.T) {
		a, err := open(t.TempDir(), 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 5; i++ {
			if err := a.Save(fmt.Sprintf("job-%06d", i), payload(1)); err != nil {
				t.Fatal(err)
			}
		}
		want := []string{"job-000003", "job-000004", "job-000005"}
		if got := a.List(); !reflect.DeepEqual(got, want) {
			t.Fatalf("after prune: %v, want %v", got, want)
		}
		if _, err := a.Load("job-000001"); !errors.Is(err, ErrNotArchived) {
			t.Fatalf("pruned archive still loadable: %v", err)
		}
	})
	t.Run("bad_names", func(t *testing.T) {
		a, err := open(t.TempDir(), 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range []string{"", "../escape", "a/b", ".hidden"} {
			if err := a.Save(job, payload(1)); err == nil {
				t.Errorf("Save(%q) accepted", job)
			}
			if _, err := a.Load(job); !errors.Is(err, ErrNotArchived) {
				t.Errorf("Load(%q): %v, want ErrNotArchived", job, err)
			}
			if err := a.Delete(job); err != nil {
				t.Errorf("Delete(%q): %v, want nil no-op", job, err)
			}
		}
	})
	t.Run("default_keep", func(t *testing.T) {
		a, err := open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if a.keep != DefaultTraceKeep {
			t.Fatalf("keep = %d, want %d", a.keep, DefaultTraceKeep)
		}
	})
}

// TestValidNameMatchesPattern checks validName against namePattern compiled
// as the regexp it replaces, over names built to sit on its edges: path
// traversal, separators, non-ASCII and invalid UTF-8 bytes, the characters
// next to each allowed range, and lengths 0, 1, 127, 128, 129 and beyond.
func TestValidNameMatchesPattern(t *testing.T) {
	re := regexp.MustCompile(namePattern)
	names := []string{
		"", "a", "job-000001", "trained-v2", "app_mpeg.dec", "X9", "9", ".", "..", "../escape",
		"a/../b", "a/b", `a\b`, "..%2f", "has space", ".hidden", "-dash", "_under", "a\n", "a\x00",
		"café", "ǅ", "\xff\xfe", "a\xff", "ａ", strings.Repeat("a", 127), strings.Repeat("a", 128),
		strings.Repeat("a", 129), strings.Repeat("b", 200), "a" + strings.Repeat("é", 63),
	}
	// Every byte the pattern might misjudge: the ASCII punctuation around
	// each allowed range, controls, DEL and bytes past ASCII.
	edges := []byte("aAzZ09._-/\\:;@[`{~ \t\n\x00\x7f\x80\xc3\xa9\xff+,=%")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(132)
		if i%10 == 0 {
			n = 126 + rng.Intn(5) // around the length bound
		}
		b := make([]byte, n)
		for j := range b {
			b[j] = "abcXYZ0189._-"[rng.Intn(13)]
		}
		for k := rng.Intn(3); n > 0 && k > 0; k-- {
			b[rng.Intn(n)] = edges[rng.Intn(len(edges))]
		}
		names = append(names, string(b))
	}
	accepted := 0
	for _, name := range names {
		want := re.MatchString(name)
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, the pattern says %v", name, got, want)
		}
		if want {
			accepted++
		}
	}
	if accepted < len(names)/10 || accepted > len(names)*9/10 {
		t.Errorf("the pattern accepts %d of %d names: too few of either kind to compare", accepted, len(names))
	}
}
