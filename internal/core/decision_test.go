package core

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// TestControllerRecordsQResetOnAppSwitch runs a Fig. 8-style two-application
// sequence (hot tachyon, then cool mpeg_dec) with a decision reporter
// attached: the trace must contain per-epoch decision events and at least
// one q_reset event where the inter-application detector fired.
func TestControllerRecordsQResetOnAppSwitch(t *testing.T) {
	hot := workload.Tachyon(workload.Set1)
	cool := workload.MPEGDec(workload.Set1)
	seq := workload.NewSequence(hot, cool)
	p := platform.New(platform.DefaultConfig(), seq)
	c, err := New(DefaultConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	var evs []telemetry.DecisionEvent
	c.ReportDecisions(func(ev telemetry.DecisionEvent) { evs = append(evs, ev) })
	for !p.Done() && p.Now() < 4000 {
		p.Step()
		c.Tick()
	}
	if !p.Done() {
		t.Fatal("sequence did not finish")
	}

	if len(evs) == 0 {
		t.Fatal("no events reported")
	}
	resets, decisions := 0, 0
	for _, ev := range evs {
		switch ev.Kind {
		case telemetry.EventQReset:
			resets++
			if !ev.SwitchDetected {
				t.Error("q_reset event not flagged as a detected switch")
			}
		case telemetry.EventDecision:
			decisions++
		}
		if ev.Workload != seq.Name() {
			t.Fatalf("event workload = %q, want %q", ev.Workload, seq.Name())
		}
	}
	if resets == 0 {
		t.Error("no q_reset event recorded at the application switch")
	}
	if resets != c.Agent().Relearns() {
		t.Errorf("recorded %d q_resets, agent reports %d relearns", resets, c.Agent().Relearns())
	}
	if decisions == 0 {
		t.Error("no plain decision events recorded")
	}
	// Epochs are recorded in order.
	for i := 1; i < len(evs); i++ {
		if evs[i].Epoch != evs[i-1].Epoch+1 {
			t.Fatalf("epochs not consecutive at %d: %d then %d", i, evs[i-1].Epoch, evs[i].Epoch)
		}
	}
}
