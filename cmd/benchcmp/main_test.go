package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func line(correct bool, cpu, ops float64) string {
	return fmt.Sprintf(`{"correct":%v,"attempted":10,"failed":0,"metrics":{"cpu_us_per_op":{"value":%g,"unit":"us"},"ops_per_s":{"value":%g,"unit":"1/s"}}}`,
		correct, cpu, ops)
}

func TestReadResultsSkipsOtherLines(t *testing.T) {
	in := "report line\n" + line(true, 100, 9000) + "\n{not json\n\n" + line(true, 90, 9100) + "\n"
	rs, err := readResults(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1].Metrics["cpu_us_per_op"].Value != 90 {
		t.Fatalf("read %+v", rs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := quantile(xs, 0.25); q != 2 {
		t.Fatalf("q1 = %v", q)
	}
	if q := quantile([]float64{1, 2}, 0.5); q != 1.5 {
		t.Fatalf("median of two = %v", q)
	}
}

func TestCompareFlagsBoundAndDirection(t *testing.T) {
	sp := map[string]metricSpec{
		"cpu_us_per_op": {Name: "cpu_us_per_op", Better: "lower", Bound: 0.25},
		"ops_per_s":     {Name: "ops_per_s", Better: "higher", Bound: 0.25},
	}
	parse := func(lines ...string) []result {
		rs, err := readResults(strings.NewReader(strings.Join(lines, "\n")))
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	parent := parse(line(true, 100, 9000), line(true, 102, 9100), line(true, 98, 8900))
	var out bytes.Buffer
	// Faster and higher throughput: passes, both better in every pair.
	if !compare(&out, sp, parent, parse(line(true, 80, 11000), line(true, 81, 11100), line(true, 79, 10900))) {
		t.Fatalf("a better change failed:\n%s", &out)
	}
	if !strings.Contains(out.String(), "3/3") || !strings.Contains(out.String(), "better beyond parent IQR") {
		t.Fatalf("missing wins or IQR note:\n%s", &out)
	}
	// Throughput fell by more than its bound: flagged.
	out.Reset()
	if compare(&out, sp, parent, parse(line(true, 100, 6000), line(true, 100, 6000), line(true, 100, 6000))) {
		t.Fatalf("a throughput drop beyond the bound passed:\n%s", &out)
	}
	if !strings.Contains(out.String(), "WORSE") {
		t.Fatalf("no WORSE flag:\n%s", &out)
	}
	// A wrong answer fails the comparison whatever the metrics say.
	out.Reset()
	if compare(&out, sp, parent, parse(line(false, 80, 11000))) {
		t.Fatalf("an incorrect run passed:\n%s", &out)
	}
}
