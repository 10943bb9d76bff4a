package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Metrics federation: a Registry can snapshot itself into self-contained
// SampleFamily values that survive a JSON round trip, so a cluster worker can
// ship its whole registry inside a heartbeat and the coordinator can re-expose
// every series with a worker label — without the two processes sharing any
// metric handles.

// SampleSeries is one labeled series of a sampled family. Counters and gauges
// carry Value; histograms carry Bounds/Cumulative/Count/Sum (the same shape
// HistogramSnapshot has, and the same consistency guarantee: Count equals the
// +Inf cumulative bucket).
type SampleSeries struct {
	// Labels is the canonical rendered label set (`{k="v",...}`, "" for none),
	// exactly as the exposition prints it.
	Labels     string    `json:"labels,omitempty"`
	Value      float64   `json:"value,omitempty"`
	Bounds     []float64 `json:"bounds,omitempty"`
	Cumulative []int64   `json:"cumulative,omitempty"`
	Count      int64     `json:"count,omitempty"`
	Sum        float64   `json:"sum,omitempty"`
}

// SampleFamily is a point-in-time snapshot of one metric family.
type SampleFamily struct {
	Name string `json:"name"`
	Help string `json:"help,omitempty"`
	// Kind is counter, gauge or histogram.
	Kind   string         `json:"kind"`
	Series []SampleSeries `json:"series"`
}

// Sample snapshots every family of the registry (gather hooks run first),
// sorted by family name and series label set, so the result is deterministic
// and safe to ship over the wire.
func (r *Registry) Sample() []SampleFamily {
	r.runHooks()
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]SampleFamily, 0, len(fams))
	for _, fam := range fams {
		sf := SampleFamily{Name: fam.name, Help: fam.help, Kind: fam.kind}
		r.mu.Lock()
		ss := make([]*series, 0, len(fam.series))
		for _, s := range fam.series {
			ss = append(ss, s)
		}
		r.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		for _, s := range ss {
			p := SampleSeries{Labels: s.labels}
			switch {
			case s.c != nil:
				p.Value = float64(s.c.Value())
			case s.g != nil:
				p.Value = s.g.Value()
			case s.fn != nil:
				p.Value = s.fn()
			case s.h != nil:
				snap := s.h.Snapshot()
				p.Bounds = snap.Bounds
				p.Cumulative = snap.Cumulative
				p.Count = snap.Count
				p.Sum = snap.Sum
			}
			sf.Series = append(sf.Series, p)
		}
		out = append(out, sf)
	}
	return out
}

// WithLabel injects one label into an already-rendered label set, keeping the
// canonical key order. The value is escaped like any exposition label value.
// Existing label values containing literal commas would be split incorrectly
// (ValidatePrometheus rejects the result); the repo's own metrics never embed
// commas in label values.
func WithLabel(labels, key, value string) string {
	pair := key + `="` + escapeLabelValue(value) + `"`
	if labels == "" || labels == "{}" {
		return "{" + pair + "}"
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := append(strings.Split(inner, ","), pair)
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// WriteSampleFamilies renders sampled families in the Prometheus text format
// — the federation twin of WritePrometheus. Families must not repeat a name;
// the caller merges cross-node series into one family before writing.
func WriteSampleFamilies(w io.Writer, fams []SampleFamily) error {
	bw := bufio.NewWriter(w)
	for _, fam := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam.Name, fam.Kind)
		for _, s := range fam.Series {
			if fam.Kind == kindHistogram {
				for i, b := range s.Bounds {
					var c int64
					if i < len(s.Cumulative) {
						c = s.Cumulative[i]
					}
					fmt.Fprintf(bw, "%s_bucket%s %d\n", fam.Name, withLE(s.Labels, formatFloat(b)), c)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", fam.Name, withLE(s.Labels, "+Inf"), s.Count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", fam.Name, s.Labels, formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", fam.Name, s.Labels, s.Count)
				continue
			}
			fmt.Fprintf(bw, "%s%s %s\n", fam.Name, s.Labels, formatFloat(s.Value))
		}
	}
	return bw.Flush()
}

// ValidatePrometheus lints a text exposition for Prometheus 0.0.4
// conformance, with particular care for histograms: every series of a family
// declared `# TYPE ... histogram` must emit cumulative, non-decreasing
// buckets with strictly ascending le bounds, an explicit +Inf bucket, and
// _count/_sum samples whose _count equals the +Inf bucket. It also rejects
// duplicate series, samples appearing before their TYPE line, malformed
// metric names, label sets that ParseLabels refuses, and anything after a
// sample's value and timestamp.
func ValidatePrometheus(r io.Reader) error {
	type histSeries struct {
		les      []float64
		counts   []int64
		sawInf   bool
		infCount int64
		count    int64
		sawCount bool
		sawSum   bool
	}
	types := make(map[string]string)
	hists := make(map[string]map[string]*histSeries) // family -> labels (le stripped) -> state
	seen := make(map[string]bool)                    // non-histogram duplicate detection
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.Fields(text)
			if len(fields) >= 2 && (fields[1] == "HELP" || fields[1] == "TYPE") &&
				(len(fields) < 3 || !validMetricName(fields[2])) {
				return fmt.Errorf("telemetry: line %d: %s line without a valid metric name", line, fields[1])
			}
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("telemetry: line %d: malformed TYPE line %q", line, text)
				}
				name, kind := fields[2], fields[3]
				if _, dup := types[name]; dup {
					return fmt.Errorf("telemetry: line %d: duplicate TYPE for %s", line, name)
				}
				switch kind {
				case kindCounter, kindGauge, kindHistogram:
				default:
					return fmt.Errorf("telemetry: line %d: unknown TYPE %q for %s", line, kind, name)
				}
				types[name] = kind
				if kind == kindHistogram {
					hists[name] = make(map[string]*histSeries)
				}
			}
			continue
		}
		name, labels, value, err := parseSampleLine(text)
		if err != nil {
			return fmt.Errorf("telemetry: line %d: %w", line, err)
		}
		base, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, sfx)
			if trimmed != name && types[trimmed] == kindHistogram {
				base, suffix = trimmed, sfx
				break
			}
		}
		if suffix == "" {
			kind, ok := types[name]
			if !ok {
				return fmt.Errorf("telemetry: line %d: sample %s before its TYPE line", line, name)
			}
			if kind == kindHistogram {
				return fmt.Errorf("telemetry: line %d: bare sample %s for histogram family", line, name)
			}
			key := name + renderLabels(labels)
			if seen[key] {
				return fmt.Errorf("telemetry: line %d: duplicate series %s", line, key)
			}
			seen[key] = true
			continue
		}
		le, rest, hasLE := splitLE(labels)
		hs := hists[base][rest]
		if hs == nil {
			hs = &histSeries{}
			hists[base][rest] = hs
		}
		switch suffix {
		case "_bucket":
			if !hasLE {
				return fmt.Errorf("telemetry: line %d: %s_bucket without le label", line, base)
			}
			count := int64(value)
			if le == "+Inf" {
				if hs.sawInf {
					return fmt.Errorf("telemetry: line %d: duplicate +Inf bucket for %s%s", line, base, rest)
				}
				hs.sawInf = true
				hs.infCount = count
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(bound) {
				return fmt.Errorf("telemetry: line %d: bad le %q on %s", line, le, base)
			}
			if hs.sawInf {
				return fmt.Errorf("telemetry: line %d: finite bucket after +Inf for %s%s", line, base, rest)
			}
			if n := len(hs.les); n > 0 && bound <= hs.les[n-1] {
				return fmt.Errorf("telemetry: line %d: le bounds not ascending for %s%s (%g after %g)",
					line, base, rest, bound, hs.les[n-1])
			}
			if n := len(hs.counts); n > 0 && count < hs.counts[n-1] {
				return fmt.Errorf("telemetry: line %d: buckets not cumulative for %s%s (%d after %d)",
					line, base, rest, count, hs.counts[n-1])
			}
			hs.les = append(hs.les, bound)
			hs.counts = append(hs.counts, count)
		case "_sum":
			if hs.sawSum {
				return fmt.Errorf("telemetry: line %d: duplicate _sum for %s%s", line, base, rest)
			}
			hs.sawSum = true
		case "_count":
			if hs.sawCount {
				return fmt.Errorf("telemetry: line %d: duplicate _count for %s%s", line, base, rest)
			}
			hs.sawCount = true
			hs.count = int64(value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for base, byLabels := range hists {
		for labels, hs := range byLabels {
			if !hs.sawInf {
				return fmt.Errorf("telemetry: histogram %s%s has no +Inf bucket", base, labels)
			}
			if !hs.sawSum || !hs.sawCount {
				return fmt.Errorf("telemetry: histogram %s%s missing _sum or _count", base, labels)
			}
			if hs.count != hs.infCount {
				return fmt.Errorf("telemetry: histogram %s%s _count %d != +Inf bucket %d",
					base, labels, hs.count, hs.infCount)
			}
			if n := len(hs.counts); n > 0 && hs.infCount < hs.counts[n-1] {
				return fmt.Errorf("telemetry: histogram %s%s +Inf bucket %d below last finite bucket %d",
					base, labels, hs.infCount, hs.counts[n-1])
			}
		}
	}
	return nil
}

// SelfTest renders the given registries (Default() when none) and validates
// the exposition, so a test or startup check catches a malformed histogram
// before a scraper does.
func SelfTest(regs ...*Registry) error {
	if len(regs) == 0 {
		regs = []*Registry{Default()}
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, regs...); err != nil {
		return err
	}
	return ValidatePrometheus(strings.NewReader(sb.String()))
}

// parseSampleLine splits `name{labels} value [timestamp]` into its parts.
func parseSampleLine(text string) (name string, labels []Label, value float64, err error) {
	n := 0
	for n < len(text) && nameByte(text[n], n == 0, true) {
		n++
	}
	name, rest := text[:n], text[n:]
	if name == "" {
		return "", nil, 0, fmt.Errorf("sample %q has no valid metric name", text)
	}
	if strings.HasPrefix(rest, "{") {
		labels, n, err = scanLabels(rest)
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[n:]
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields) > 2 || (rest[0] != ' ' && rest[0] != '\t') {
		return "", nil, 0, fmt.Errorf("malformed sample %q: want name{labels} value [timestamp]", text)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("sample %q has non-numeric value: %v", text, err)
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("sample %q has a bad timestamp: %v", text, err)
		}
	}
	return name, labels, value, nil
}

// splitLE extracts the le label from a sample's labels, returning the le
// value and the other labels rendered canonically ("" when none).
func splitLE(labels []Label) (le, rest string, ok bool) {
	kept := make([]Label, 0, len(labels))
	for _, l := range labels {
		if l.Key == "le" {
			le, ok = l.Value, true
			continue
		}
		kept = append(kept, l)
	}
	return le, renderLabels(kept), ok
}

// ParseLabels parses a rendered label set strictly: "" or "{}" for none,
// otherwise `{name="value",...}` with valid label names, no name twice, each
// value's backslash, double quote and newline escaped (\\, \", \n), and
// nothing after the closing brace. It returns the labels in their order.
func ParseLabels(s string) ([]Label, error) {
	if s == "" {
		return nil, nil
	}
	labels, n, err := scanLabels(s)
	if err != nil {
		return nil, err
	}
	if n != len(s) {
		return nil, fmt.Errorf("telemetry: label set %q: %q after the closing brace", s, s[n:])
	}
	return labels, nil
}

// scanLabels parses the label set s starts with and returns its labels and
// the number of bytes it spans.
func scanLabels(s string) ([]Label, int, error) {
	bad := func(i int, what string) ([]Label, int, error) {
		return nil, 0, fmt.Errorf("telemetry: label set %q: %s at byte %d", s, what, i)
	}
	if !strings.HasPrefix(s, "{") {
		return bad(0, "no opening brace")
	}
	if strings.HasPrefix(s, "{}") {
		return nil, 2, nil
	}
	var labels []Label
	for i := 1; ; {
		j := i
		for j < len(s) && nameByte(s[j], j == i, false) {
			j++
		}
		key := s[i:j]
		if key == "" || !strings.HasPrefix(s[j:], `="`) {
			return bad(i, `want name="value"`)
		}
		for _, l := range labels {
			if l.Key == key {
				return bad(i, "duplicate label "+key)
			}
		}
		var v strings.Builder
		for j += 2; ; j++ {
			if j >= len(s) || s[j] == '\n' {
				return bad(j, "unterminated value")
			}
			if s[j] == '"' {
				break
			}
			if s[j] == '\\' {
				j++
				switch {
				case j >= len(s):
					return bad(j, "unterminated value")
				case s[j] == 'n':
					v.WriteByte('\n')
				case s[j] == '\\' || s[j] == '"':
					v.WriteByte(s[j])
				default:
					return bad(j, "unknown escape")
				}
				continue
			}
			v.WriteByte(s[j])
		}
		labels = append(labels, Label{Key: key, Value: v.String()})
		switch j++; {
		case j < len(s) && s[j] == '}':
			return labels, j + 1, nil
		case j < len(s) && s[j] == ',':
			i = j + 1
		default:
			return bad(j, "want , or }")
		}
	}
}

// nameByte reports whether c may stand in a metric name (metric, which also
// allows colons) or a label name; first marks the name's first byte, which
// may not be a digit.
func nameByte(c byte, first, metric bool) bool {
	return c == '_' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		!first && '0' <= c && c <= '9' || metric && c == ':'
}

// validMetricName reports whether s is a valid metric name.
func validMetricName(s string) bool {
	for i := 0; i < len(s); i++ {
		if !nameByte(s[i], i == 0, true) {
			return false
		}
	}
	return s != ""
}
