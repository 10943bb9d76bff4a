package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

func TestRegistrySampleRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("jobs_total", "Jobs.").Add(3)
	reg.Gauge("inflight", "Inflight.").Set(2)
	h := reg.Histogram("latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	fams := reg.Sample()
	if len(fams) != 3 {
		t.Fatalf("sampled %d families, want 3", len(fams))
	}
	byName := make(map[string]SampleFamily)
	for _, f := range fams {
		byName[f.Name] = f
	}
	if got := byName["jobs_total"].Series[0].Value; got != 3 {
		t.Errorf("jobs_total = %v, want 3", got)
	}
	hf := byName["latency_seconds"]
	if hf.Kind != "histogram" || len(hf.Series) != 1 {
		t.Fatalf("latency family: kind=%q series=%d", hf.Kind, len(hf.Series))
	}
	s := hf.Series[0]
	if s.Count != 3 || s.Sum != 5.55 {
		t.Errorf("histogram count=%d sum=%v, want 3 / 5.55", s.Count, s.Sum)
	}
	// Two finite bounds plus the implicit +Inf bucket.
	want := []int64{1, 2, 3}
	for i, c := range s.Cumulative {
		if c != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, c, want[i])
		}
	}
}

// TestWriteSampleFamiliesConformant: the federated render (with an injected
// worker label, the coordinator's exact usage) must itself pass the
// Prometheus 0.0.4 lint.
func TestWriteSampleFamiliesConformant(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cells_total", "Cells.", L("phase", "exec")).Add(7)
	reg.Histogram("exec_seconds", "Exec.", []float64{0.5}).Observe(0.2)

	fams := reg.Sample()
	for i := range fams {
		for j := range fams[i].Series {
			fams[i].Series[j].Labels = WithLabel(fams[i].Series[j].Labels, "worker", "w0")
		}
	}
	var sb strings.Builder
	if err := WriteSampleFamilies(&sb, fams); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `cells_total{phase="exec",worker="w0"} 7`) {
		t.Errorf("worker label missing:\n%s", out)
	}
	if !strings.Contains(out, `exec_seconds_bucket{worker="w0",le="+Inf"} 1`) {
		t.Errorf("+Inf bucket missing:\n%s", out)
	}
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("federated exposition failed lint: %v\n%s", err, out)
	}
}

func TestSelfTestPasses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "A.").Inc()
	reg.Histogram("b_seconds", "B.", []float64{1, 2}).Observe(1.5)
	reg.Histogram("empty_seconds", "Never observed.", []float64{1})
	if err := SelfTest(reg); err != nil {
		t.Fatalf("conformant registry failed self-test: %v", err)
	}
}

// TestValidatePrometheusRejects feeds hand-built non-conformant expositions
// — each a real way a federation bug could corrupt the page.
func TestValidatePrometheusRejects(t *testing.T) {
	cases := []struct {
		name, text, wantErr string
	}{
		{
			name: "non_cumulative_buckets",
			text: "# TYPE h histogram\n" +
				`h_bucket{le="0.5"} 4` + "\n" +
				`h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 4` + "\n" +
				"h_sum 1\nh_count 4\n",
			wantErr: "cumulative",
		},
		{
			name: "missing_inf_bucket",
			text: "# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" +
				"h_sum 1\nh_count 2\n",
			wantErr: "+Inf",
		},
		{
			name: "inf_count_mismatch",
			text: "# TYPE h histogram\n" +
				`h_bucket{le="1"} 2` + "\n" +
				`h_bucket{le="+Inf"} 3` + "\n" +
				"h_sum 1\nh_count 4\n",
			wantErr: "_count",
		},
		{
			name: "missing_sum",
			text: "# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 1` + "\n" +
				"h_count 1\n",
			wantErr: "_sum",
		},
		{
			name:    "duplicate_series",
			text:    "# TYPE c counter\nc 1\nc 2\n",
			wantErr: "duplicate",
		},
		{
			name: "unsorted_le",
			text: "# TYPE h histogram\n" +
				`h_bucket{le="2"} 1` + "\n" +
				`h_bucket{le="1"} 1` + "\n" +
				`h_bucket{le="+Inf"} 1` + "\n" +
				"h_sum 1\nh_count 1\n",
			wantErr: "ascending",
		},
		{
			// What WithLabel makes of a value with a comma in it.
			name:    "comma_split_label",
			text:    "# TYPE c counter\n" + `c{a="x,worker="w1",y"} 1` + "\n",
			wantErr: "want , or }",
		},
		{
			name:    "duplicate_label",
			text:    "# TYPE c counter\n" + `c{worker="w0",worker="w1"} 1` + "\n",
			wantErr: "duplicate label",
		},
		{
			name:    "unterminated_label",
			text:    "# TYPE c counter\n" + `c{a="1} 1` + "\n",
			wantErr: "unterminated",
		},
		{
			name:    "unknown_escape",
			text:    "# TYPE c counter\n" + `c{a="\t"} 1` + "\n",
			wantErr: "escape",
		},
		{
			name:    "bad_metric_name",
			text:    "# TYPE bad-name counter\nbad-name 1\n",
			wantErr: "metric name",
		},
		{
			name:    "text_after_value",
			text:    "# TYPE c counter\nc 1 2 3\n",
			wantErr: "malformed sample",
		},
		{
			name:    "value_glued_to_labels",
			text:    "# TYPE c counter\n" + `c{a="1"}1` + "\n",
			wantErr: "malformed sample",
		},
		{
			name:    "unknown_type",
			text:    "# TYPE s summary\ns 1\n",
			wantErr: "unknown TYPE",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidatePrometheus(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("lint accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseLabels: a rendered label set parses back to its labels, escapes
// included, and anything a renderer could not have written is an error.
func TestParseLabels(t *testing.T) {
	for in, want := range map[string][]Label{
		"":                             nil,
		"{}":                           nil,
		`{a="1",b_2="x,y"}`:            {{"a", "1"}, {"b_2", "x,y"}},
		`{v="q\"uote \\ line\nbreak"}`: {{"v", "q\"uote \\ line\nbreak"}},
		renderLabels([]Label{{"z", "a\"b\\c\nd"}, {"k", ""}}): {{"k", ""}, {"z", "a\"b\\c\nd"}},
	} {
		got, err := ParseLabels(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseLabels(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, in := range []string{
		`a="1"`, `{a="1"`, `{a="1"} 1`, `{a="1",}`, `{1a="1"}`, `{a=1}`, `{a="1"b="2"}`,
		"{a=\"1\n\"}", `{a="1",a="2"}`, `{a="\x"}`, `{a="1"}` + "\n#",
	} {
		if got, err := ParseLabels(in); err == nil {
			t.Errorf("ParseLabels(%q) = %q, want an error", in, got)
		}
	}
}

func TestValidatePrometheusAcceptsConformant(t *testing.T) {
	text := "# HELP h Latency.\n# TYPE h histogram\n" +
		`h_bucket{le="0.5"} 1` + "\n" +
		`h_bucket{le="1"} 3` + "\n" +
		`h_bucket{le="+Inf"} 4` + "\n" +
		"h_sum 2.5\nh_count 4\n" +
		"# TYPE c counter\n" +
		`c{worker="w0"} 1` + "\n" +
		`c{worker="w1"} 2` + "\n"
	if err := ValidatePrometheus(strings.NewReader(text)); err != nil {
		t.Fatalf("lint rejected conformant exposition: %v", err)
	}
}

// TestTracerImport covers the cross-node merge: IDs remapped without
// collision, in-batch hierarchy preserved, batch roots re-parented under the
// local parent with the root-only attrs appended.
func TestTracerImport(t *testing.T) {
	remote := NewTracer(32)
	rRoot := remote.Start(0, KindExec, "exec")
	rChild := remote.Start(rRoot, KindRun, "run")
	remote.End(rChild)
	remote.End(rRoot, Bool("error", false))

	local := NewTracer(32)
	lJob := local.Start(0, KindJob, "job")
	lDispatch := local.Start(lJob, KindDispatch, "dispatch")
	n := local.Import(lDispatch, remote.Snapshot(), Str("node", "w0"))
	if n != 2 {
		t.Fatalf("imported %d spans, want 2", n)
	}

	spans := local.Snapshot()
	byKind := make(map[string]Span)
	ids := make(map[SpanID]bool)
	for _, sp := range spans {
		byKind[sp.Kind] = sp
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d after import", sp.ID)
		}
		ids[sp.ID] = true
	}
	exec, run := byKind[KindExec], byKind[KindRun]
	if exec.Parent != lDispatch {
		t.Errorf("imported root parent = %d, want dispatch %d", exec.Parent, lDispatch)
	}
	if run.Parent != exec.ID {
		t.Errorf("imported child parent = %d, want remapped exec %d", run.Parent, exec.ID)
	}
	if node, _, ok := exec.Attr("node"); !ok || node != "w0" {
		t.Errorf("root attr node = %q, want w0", node)
	}
	if _, _, ok := run.Attr("node"); ok {
		t.Error("root-only attr leaked onto a child span")
	}
}

// TestTracerImportNilSafe: nil tracer and empty batches are no-ops.
func TestTracerImportNilSafe(t *testing.T) {
	var tr *Tracer
	if n := tr.Import(0, []Span{{ID: 1}}); n != 0 {
		t.Fatalf("nil tracer imported %d spans", n)
	}
	tr = NewTracer(8)
	if n := tr.Import(0, nil); n != 0 {
		t.Fatalf("empty import returned %d", n)
	}
}
