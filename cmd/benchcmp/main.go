// Command benchcmp compares two sets of gwbench results, a parent's and
// a change's, metric by metric.
//
//	benchcmp -bench BENCHMARK.json parent.txt change.txt
//
// Each file holds gwbench's result lines (the JSON object each run
// prints last); other lines are skipped, so whole run logs can be
// passed. Runs pair up in file order: the i-th parent result with the
// i-th change result, as alternating parent/change runs produce them.
//
// For every metric it prints the parent's and the change's median and
// interquartile range, the relative change of the medians, and in how
// many pairs the change was better. A metric that BENCHMARK.json lists
// as end-to-end is flagged WORSE when the change's median is worse than
// the parent's by more than its bound. The exit status is 1 when a
// metric is flagged or a run reports wrong answers or failed operations.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// result is one gwbench result line.
type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// spec is the part of BENCHMARK.json benchcmp reads: each metric's
// direction and, for end-to-end metrics, its bound.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0: not gated
}

func main() {
	benchPath := flag.String("bench", "BENCHMARK.json", "benchmark declaration with metric directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchcmp [-bench BENCHMARK.json] parent.txt change.txt")
		os.Exit(2)
	}
	sp, err := readSpec(*benchPath)
	if err != nil {
		fatal(err)
	}
	var runs [2][]result
	for i, path := range flag.Args() {
		if runs[i], err = readResultsFile(path); err != nil {
			fatal(err)
		}
		if len(runs[i]) == 0 {
			fatal(fmt.Errorf("%s: no result lines", path))
		}
	}
	if !compare(os.Stdout, sp, runs[0], runs[1]) {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}

func readSpec(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]metricSpec{}
	for _, m := range s.PerLayer {
		out[m.Name] = m
	}
	for _, m := range s.EndToEnd {
		out[m.Name] = m
	}
	return out, nil
}

func readResultsFile(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readResults(f)
}

// readResults returns the result lines of r in order.
func readResults(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var res result
		if json.Unmarshal(line, &res) != nil || res.Metrics == nil {
			continue
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 1 {
		return xs[0]
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// summary is a metric's median and quartiles over runs.
type summary struct{ q1, med, q3 float64 }

func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	sort.Float64s(s)
	return summary{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// values returns the metric's value in each run that reports it.
func values(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// compare writes the comparison table and reports whether the change
// passes: no gated metric worse than its bound, every run correct with
// no failed operations.
func compare(w io.Writer, sp map[string]metricSpec, parent, change []result) bool {
	ok := true
	for i, runs := range [][]result{parent, change} {
		for j, r := range runs {
			if !r.Correct || r.Failed > 0 {
				fmt.Fprintf(w, "%s run %d: correct=%v failed=%d\n", []string{"parent", "change"}[i], j+1, r.Correct, r.Failed)
				ok = false
			}
		}
	}
	names := map[string]bool{}
	for _, r := range append(slices.Clone(parent), change...) {
		for name := range r.Metrics {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	pairs := min(len(parent), len(change))
	fmt.Fprintf(w, "%d parent runs, %d change runs, %d pairs\n", len(parent), len(change), pairs)
	fmt.Fprintf(w, "%-30s %-32s %-32s %8s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "note")
	for _, name := range sorted {
		pv, cv := values(parent, name), values(change, name)
		if len(pv) == 0 || len(cv) == 0 {
			continue
		}
		ms, known := sp[name]
		lower := !known || ms.Better != "higher"
		p, c := summarize(pv), summarize(cv)
		delta := math.NaN()
		if p.med != 0 {
			delta = (c.med - p.med) / math.Abs(p.med)
		}
		wins := 0
		for i := 0; i < pairs; i++ {
			a, aok := parent[i].Metrics[name]
			b, bok := change[i].Metrics[name]
			if aok && bok && (lower && b.Value < a.Value || !lower && b.Value > a.Value) {
				wins++
			}
		}
		note := ""
		worse := delta
		if !lower {
			worse = -delta
		}
		switch {
		case !known:
			note = "not in benchmark declaration; lower taken as better"
		case ms.Bound > 0 && worse > ms.Bound:
			note = fmt.Sprintf("WORSE beyond bound %.2g", ms.Bound)
			ok = false
		case math.Abs(c.med-p.med) > p.q3-p.q1 && worse < 0:
			note = "better beyond parent IQR"
		}
		fmt.Fprintf(w, "%-30s %-32s %-32s %+7.1f%% %3d/%-2d  %s\n", name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", p.med, p.q1, p.q3),
			fmt.Sprintf("%.4g [%.4g, %.4g]", c.med, c.q1, c.q3),
			100*delta, wins, pairs, note)
	}
	return ok
}
