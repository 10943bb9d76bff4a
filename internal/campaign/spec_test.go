package campaign

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/policy"
)

func wantPlanTooLarge(t *testing.T, err error) {
	if !errors.Is(err, ErrPlanTooLarge) {
		t.Errorf("err = %v, want ErrPlanTooLarge", err)
	}
}

func TestParseSpecGolden(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want func(t *testing.T, err error)
	}{
		{
			name: "bad json",
			doc:  `{"policies": [`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "parse spec") {
					t.Errorf("err = %v, want parse error", err)
				}
			},
		},
		{
			name: "unknown field",
			doc:  `{"policies":["proposed"],"workloads":["mpegdec"],"typo_field":1}`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "typo_field") {
					t.Errorf("err = %v, want unknown-field error", err)
				}
			},
		},
		{
			name: "trailing data",
			doc:  `{"policies":["proposed"],"workloads":["mpegdec"]}{"again":true}`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "trailing data") {
					t.Errorf("err = %v, want trailing-data error", err)
				}
			},
		},
		{
			name: "unknown policy",
			doc:  `{"policies":["thermogod"],"workloads":["mpegdec"]}`,
			want: func(t *testing.T, err error) {
				var upe *policy.UnknownPolicyError
				if !errors.As(err, &upe) || upe.Name != "thermogod" {
					t.Errorf("err = %v, want *policy.UnknownPolicyError{thermogod}", err)
				}
			},
		},
		{
			name: "unknown workload",
			doc:  `{"policies":["proposed"],"workloads":["doom"]}`,
			want: func(t *testing.T, err error) {
				var uwe *UnknownWorkloadError
				if !errors.As(err, &uwe) || uwe.Workload != "doom" {
					t.Errorf("err = %v, want *UnknownWorkloadError{doom}", err)
				}
			},
		},
		{
			name: "empty matrix",
			doc:  `{"policies":[],"workloads":["mpegdec"]}`,
			want: func(t *testing.T, err error) {
				if !errors.Is(err, ErrEmptyMatrix) {
					t.Errorf("err = %v, want ErrEmptyMatrix", err)
				}
			},
		},
		{
			name: "duplicate policy",
			doc:  `{"policies":["proposed","proposed"],"workloads":["mpegdec"]}`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "listed twice") {
					t.Errorf("err = %v, want duplicate error", err)
				}
			},
		},
		{
			name: "bad dataset",
			doc:  `{"policies":["proposed"],"workloads":["mpegdec"],"dataset":9}`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "dataset") {
					t.Errorf("err = %v, want dataset error", err)
				}
			},
		},
		{
			name: "override outside matrix",
			doc:  `{"policies":["proposed"],"workloads":["mpegdec"],"overrides":{"proposed/tachyon":{"repeats":2}}}`,
			want: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "override key") {
					t.Errorf("err = %v, want override-key error", err)
				}
			},
		},
		{
			name: "oversize repeats",
			doc:  `{"policies":["linux-ondemand"],"workloads":["tachyon"],"repeats":2000000000}`,
			want: wantPlanTooLarge,
		},
		{
			name: "oversize override repeats",
			doc:  `{"policies":["linux-ondemand"],"workloads":["tachyon"],"overrides":{"linux-ondemand/tachyon":{"repeats":2000000000}}}`,
			want: wantPlanTooLarge,
		},
		{
			// 4 x (2^62+1) wraps to 4 in int64 arithmetic.
			name: "seeds times repeats overflows",
			doc:  `{"policies":["linux-ondemand"],"workloads":["tachyon"],"seeds":[1,2,3,4],"repeats":4611686018427387905}`,
			want: wantPlanTooLarge,
		},
		{
			name: "plan one past the bound",
			doc:  `{"policies":["linux-ondemand","proposed"],"workloads":["tachyon"],"seeds":[1,2],"repeats":16384,"overrides":{"proposed/tachyon":{"seeds":[7],"repeats":32769}}}`,
			want: wantPlanTooLarge,
		},
		{
			name: "plan at the bound",
			doc:  `{"policies":["linux-ondemand","proposed"],"workloads":["tachyon"],"seeds":[1,2],"repeats":16384}`,
			want: func(t *testing.T, err error) {
				if err != nil {
					t.Errorf("a plan of exactly %d cells: %v", maxPlanCells, err)
				}
			},
		},
		{
			name: "valid with sequence workload",
			doc:  `{"name":"ok","policies":["proposed","releta"],"workloads":["mpegdec","mpegdec-tachyon"],"seeds":[1,2],"repeats":2}`,
			want: func(t *testing.T, err error) {
				if err != nil {
					t.Errorf("unexpected error: %v", err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(tc.doc))
			tc.want(t, err)
		})
	}
}

func TestPlanExpansion(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"policies": ["linux-ondemand", "proposed"],
		"workloads": ["mpegdec", "tachyon"],
		"seeds": [1, 2],
		"repeats": 2,
		"overrides": {"proposed/tachyon": {"seeds": [7], "repeats": 1}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	plan := s.plan()
	// 3 full cells x 2 seeds x 2 repeats + 1 overridden cell x 1 seed x 1.
	if len(plan) != 3*2*2+1 {
		t.Fatalf("plan has %d cells, want 13", len(plan))
	}
	// Expansion order is policies x workloads x seeds x repeats.
	first := plan[0]
	if first.Policy != "linux-ondemand" || first.Workload != "mpegdec" || first.Seed != 1 || first.Repeat != 0 {
		t.Errorf("first cell = %+v", first)
	}
	last := plan[len(plan)-1]
	if last.Policy != "proposed" || last.Workload != "tachyon" || last.Seed != 7 || last.Repeat != 0 {
		t.Errorf("overridden cell = %+v", last)
	}
}

func TestAgentSeedDecorrelates(t *testing.T) {
	a := cellPlan{Policy: "proposed", Workload: "mpegdec", Seed: 1, Repeat: 0}
	b := cellPlan{Policy: "releta", Workload: "mpegdec", Seed: 1, Repeat: 0}
	c := cellPlan{Policy: "proposed", Workload: "mpegdec", Seed: 1, Repeat: 1}
	if a.agentSeed() == b.agentSeed() || a.agentSeed() == c.agentSeed() {
		t.Error("cells sharing a base seed did not decorrelate")
	}
	if a.agentSeed() != (cellPlan{Policy: "proposed", Workload: "mpegdec", Seed: 1, Repeat: 0}).agentSeed() {
		t.Error("agentSeed is not deterministic")
	}
	if a.agentSeed() == 0 {
		t.Error("agentSeed produced the package-default sentinel 0")
	}
}

// TestParseSpecLongSequenceAllocs: validating a workload name resolves each
// "-"-joined part without generating its application, so a 1,000-part
// sequence costs a handful of allocations rather than one application per
// part.
func TestParseSpecLongSequenceAllocs(t *testing.T) {
	doc := []byte(`{"policies":["proposed"],"workloads":["` + strings.Repeat("tachyon-", 999) + `tachyon"]}`)
	if _, err := ParseSpec(doc); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() { ParseSpec(doc) }); allocs >= 100 { //nolint:errcheck // parsed above
		t.Errorf("ParseSpec of a 1,000-part sequence allocates %.0f times, want fewer than 100", allocs)
	}
}

// FuzzParseSpec holds ParseSpec to its contract on arbitrary documents: it
// never panics, every rejection is a typed or wrapped error, and an accepted
// spec plans exactly the cell count Validate bounded. The seed corpus in
// testdata/fuzz/FuzzParseSpec holds the example tournament, this file's
// documents and the oversize-plan documents.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := ParseSpec(doc)
		if err != nil {
			var upe *policy.UnknownPolicyError
			if errors.Unwrap(err) == nil && !errors.Is(err, ErrEmptyMatrix) &&
				!errors.Is(err, ErrPlanTooLarge) && !errors.As(err, &upe) {
				t.Fatalf("rejection %q (%T) is neither typed nor wrapped", err, err)
			}
			return
		}
		n, ok := s.planSize()
		if !ok {
			t.Fatal("accepted a spec whose plan passes the bound")
		}
		if got := len(s.plan()); got != n {
			t.Fatalf("accepted spec plans %d cells, Validate counted %d", got, n)
		}
	})
}
