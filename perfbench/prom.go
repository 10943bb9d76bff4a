package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSet is a parsed /metrics page, possibly merged from several processes.
type promSet []sample

// parseProm parses the text exposition format the servers emit. Comment
// lines are skipped; a line that does not parse is ignored rather than
// failing the whole scrape.
func parseProm(text string) promSet {
	var out promSet
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		s := sample{name: head, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 && strings.HasSuffix(head, "}") {
			s.name = head[:i]
			s.labels = parseLabels(head[i+1 : len(head)-1])
		}
		out = append(out, s)
	}
	return out
}

// parseLabels splits `a="x",b="y"`; label values in this repository never
// contain quotes or commas.
func parseLabels(s string) map[string]string {
	m := make(map[string]string)
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok {
			m[k] = strings.Trim(v, `"`)
		}
	}
	return m
}

// matches reports whether every key of want has that value on s.
func (s sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of name whose labels match want.
func (p promSet) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range p {
		if s.name == name && s.matches(want) {
			t += s.value
		}
	}
	return t
}

// buckets returns the cumulative histogram buckets of name (summed across
// matching series), sorted by upper bound.
func (p promSet) buckets(name string, want map[string]string) []bucket {
	byLE := map[float64]float64{}
	for _, s := range p {
		if s.name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		byLE[le] += s.value
	}
	out := make([]bucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, bucket{le: le, count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

type bucket struct{ le, count float64 }

// counterDelta is after − before of a summed series.
func counterDelta(before, after promSet, name string, want map[string]string) float64 {
	return after.sum(name, want) - before.sum(name, want)
}

// histDelta returns the bucket counts observed between two scrapes plus the
// delta of the histogram's _sum and _count.
func histDelta(before, after promSet, name string, want map[string]string) (bs []bucket, sum, count float64) {
	a, b := after.buckets(name, want), before.buckets(name, want)
	prev := map[float64]float64{}
	for _, x := range b {
		prev[x.le] = x.count
	}
	for _, x := range a {
		bs = append(bs, bucket{le: x.le, count: x.count - prev[x.le]})
	}
	return bs, counterDelta(before, after, name+"_sum", want), counterDelta(before, after, name+"_count", want)
}

// histQuantile interpolates quantile q inside cumulative buckets the way
// Prometheus' histogram_quantile does. It returns NaN for an empty histogram.
func histQuantile(q float64, bs []bucket) float64 {
	if len(bs) == 0 {
		return math.NaN()
	}
	total := bs[len(bs)-1].count
	if total <= 0 {
		return math.NaN()
	}
	rank := q * total
	lower, prevCount := 0.0, 0.0
	for _, b := range bs {
		if b.count >= rank {
			if math.IsInf(b.le, 1) {
				return lower
			}
			inBucket := b.count - prevCount
			if inBucket <= 0 {
				return b.le
			}
			return lower + (b.le-lower)*(rank-prevCount)/inBucket
		}
		lower, prevCount = b.le, b.count
	}
	return lower
}
