package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// A job's decision record is its tracer's epoch spans, read back through
// DecisionEvents. The TestRecorder* tests pin that record's guarantees: the
// newest decisions survive wraparound, concurrent cells record into one
// ring, and the JSONL encoding survives a NaN reward.

// recordDecision records ev as an epoch span, as a run reports a decision.
func recordDecision(tr *Tracer, ev DecisionEvent) {
	tr.Record(0, KindEpoch, fmt.Sprintf("epoch %d", ev.Epoch), 0, 1, ev.SpanAttrs()...)
}

func TestRecorderKeepsNewestOnWraparound(t *testing.T) {
	tr := newTestTracer(4)
	for i := 1; i <= 10; i++ {
		recordDecision(tr, DecisionEvent{Epoch: i, Kind: EventDecision})
	}
	evs := DecisionEvents(tr.Snapshot())
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Epoch != 7+i {
			t.Errorf("event %d has epoch %d, want %d (newest 4, oldest first)", i, ev.Epoch, 7+i)
		}
	}
	if tr.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestRecorderBelowCapacity(t *testing.T) {
	tr := newTestTracer(8)
	recordDecision(tr, DecisionEvent{Epoch: 1})
	recordDecision(tr, DecisionEvent{Epoch: 2})
	evs := DecisionEvents(tr.Snapshot())
	if len(evs) != 2 || evs[0].Epoch != 1 || evs[1].Epoch != 2 {
		t.Errorf("events = %+v", evs)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", tr.Dropped())
	}
}

func TestRecorderJSONL(t *testing.T) {
	tr := newTestTracer(4)
	// A NaN reward (first epoch has no previous action) must not break the
	// JSON encoding.
	recordDecision(tr, DecisionEvent{Epoch: 1, Reward: math.NaN(), Kind: EventDecision, Workload: "mpeg_dec"})
	recordDecision(tr, DecisionEvent{Epoch: 2, Reward: 0.5, Kind: EventQReset, SwitchDetected: true})
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, DecisionEvents(tr.Snapshot())); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []DecisionEvent
	for sc.Scan() {
		var ev DecisionEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ev)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Reward != 0 {
		t.Errorf("NaN reward should serialize as 0, got %g", lines[0].Reward)
	}
	if lines[1].Kind != EventQReset || !lines[1].SwitchDetected {
		t.Errorf("second line = %+v", lines[1])
	}
}

func TestRecorderPhaseExploredSerialized(t *testing.T) {
	tr := newTestTracer(4)
	recordDecision(tr, DecisionEvent{Epoch: 1, Phase: "exploration", Explored: true, Reward: math.NaN()})
	var sb strings.Builder
	if err := WriteEventsJSONL(&sb, DecisionEvents(tr.Snapshot())); err != nil {
		t.Fatal(err)
	}
	line := sb.String()
	if !strings.Contains(line, `"phase":"exploration"`) || !strings.Contains(line, `"explored":true`) {
		t.Errorf("phase/explored missing from JSONL: %s", line)
	}
}

// TestRecorderConcurrent exercises parallel writers against a reader, as a
// job's cells record while the events endpoint drains. Run under -race.
func TestRecorderConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				recordDecision(tr, DecisionEvent{Epoch: i})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if n := len(DecisionEvents(tr.Snapshot())); n > 64 {
				t.Errorf("decision record exceeded capacity: %d", n)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if tr.Len() != 64 {
		t.Errorf("final length = %d, want 64", tr.Len())
	}
	if tr.Dropped() != 4*1000-64 {
		t.Errorf("dropped = %d, want %d", tr.Dropped(), 4*1000-64)
	}
}

// TestDecisionEventsJSONL: DecisionEvents inverts SpanAttrs on a tracer's
// epoch spans, live and after the archival JSONL round trip, reading the
// first epoch's NaN reward as 0; WriteEventsJSONL writes one event per line
// that decodes back to it.
func TestDecisionEventsJSONL(t *testing.T) {
	want := []DecisionEvent{
		{Epoch: 1, TimeS: 0.5, Workload: "mpeg_dec", State: 3, Action: 7, Alpha: 0.87,
			Phase: "exploration", Explored: true, Kind: EventDecision},
		{Epoch: 2, TimeS: 1, Workload: "mpeg_dec", State: 0, Action: 2, Reward: -0.25, Alpha: 0.5,
			Phase: "exploitation", Kind: EventQReset, SwitchDetected: true},
	}
	tr := newTestTracer(0)
	run := tr.Start(0, KindRun, "proposed/mpeg_dec")
	for i, ev := range want {
		if i == 0 {
			ev.Reward = math.NaN()
		}
		tr.Record(run, KindEpoch, fmt.Sprintf("epoch %d", ev.Epoch), 0, 1, ev.SpanAttrs()...)
	}
	tr.End(run, Str("node", "w1")) // a non-epoch span, ignored
	var archive bytes.Buffer
	if err := WriteSpansJSONL(&archive, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	restored, err := DecodeSpansJSONL(&archive)
	if err != nil {
		t.Fatal(err)
	}
	for name, spans := range map[string][]Span{"live": tr.Snapshot(), "archived": restored} {
		if got := DecisionEvents(spans); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecisionEvents =\n%+v\nwant\n%+v", name, got, want)
		}
	}

	var sb strings.Builder
	if err := WriteEventsJSONL(&sb, want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var ev DecisionEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil || ev != want[i] {
			t.Errorf("line %d = %s (%v), want %+v", i, line, err, want[i])
		}
	}
}
