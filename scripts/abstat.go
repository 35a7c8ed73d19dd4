//go:build ignore

// abstat summarizes the paired benchmark runs scripts/ab.sh leaves in a
// results directory: a-I.json (parent) and b-I.json (change) for pair I,
// each the standard output of one `perfbench/run.sh --trace 0` run.
//
//	go run scripts/abstat.go -bench BENCHMARK.json -pairs N DIR
//
// For every end-to-end metric BENCHMARK.json declares it prints one row
// of a markdown table: each side's median and quartiles (linearly
// interpolated, as perfbench computes them), how many pairs the change
// won outright, the change/parent ratio of the medians, and a verdict:
//
//   - "REGRESSION" when the change is worse than the parent by more than
//     the metric's bound (the ratio above 1+bound for lower-is-better
//     metrics, below 1-bound for higher-is-better ones);
//   - "gain" when the change is better, won at least 9 in 10 pairs, and
//     its median differs from the parent's by more than the parent's
//     interquartile range;
//   - "unresolved" when either side's interquartile range is wider than
//     the metric's bound times that side's median, so the runs spread
//     too widely to tell a change of the bound's size, unless every run
//     of the change beats every run of the parent;
//   - "within bound" otherwise.
//
// An unresolved metric does not change the exit status.
//
// It exits 1 if any metric regresses or any run is incorrect or has
// failed ops.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

type declared struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// run is one perfbench run: its stamp (first line) and result (last).
type run struct {
	Stamp  stamp
	Result result
}

type stamp struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NProc      int `json:"nproc"`
}

type result struct {
	Correct bool `json:"correct"`
	Failed  int  `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark declaration")
	pairs := flag.Int("pairs", 0, "number of pairs in the results directory")
	flag.Parse()
	if flag.NArg() != 1 || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/abstat.go -bench BENCHMARK.json -pairs N DIR")
		os.Exit(2)
	}
	if err := summarize(*bench, *pairs, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "abstat:", err)
		os.Exit(1)
	}
}

func summarize(benchPath string, pairs int, dir string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	sides := map[string][]run{}
	bad := 0
	for _, side := range []string{"a", "b"} {
		for i := 0; i < pairs; i++ {
			r, err := readRun(filepath.Join(dir, fmt.Sprintf("%s-%d.json", side, i)))
			if err != nil {
				return err
			}
			if !r.Result.Correct || r.Result.Failed > 0 {
				bad++
			}
			sides[side] = append(sides[side], r)
		}
	}
	env := map[string]bool{}
	for _, rs := range sides {
		for _, r := range rs {
			env[fmt.Sprintf("nproc %d, GOMAXPROCS %d", r.Stamp.NProc, r.Stamp.GOMAXPROCS)] = true
		}
	}
	var envs []string
	for e := range env {
		envs = append(envs, e)
	}
	sort.Strings(envs)
	fmt.Printf("Runs on %s; %d of %d runs correct with no failed op.\n\n", strings.Join(envs, " / "), 2*pairs-bad, 2*pairs)

	fmt.Println("| metric | parent median [q1, q3] | change median [q1, q3] | change won | change/parent | verdict |")
	fmt.Println("|---|---|---|---|---|---|")
	regressed := false
	for _, m := range decl.EndToEnd {
		a, b := values(sides["a"], m.Name), values(sides["b"], m.Name)
		lower := m.Better == "lower"
		wins := 0
		for i := range a {
			if (lower && b[i] < a[i]) || (!lower && b[i] > a[i]) {
				wins++
			}
		}
		ma, mb := quantile(a, 0.5), quantile(b, 0.5)
		iqr := quantile(a, 0.75) - quantile(a, 0.25)
		iqrB := quantile(b, 0.75) - quantile(b, 0.25)
		ratio := mb / ma
		better := (lower && mb < ma) || (!lower && mb > ma)
		verdict := "within bound"
		switch {
		case (lower && ratio > 1+m.Bound) || (!lower && ratio < 1-m.Bound):
			verdict = fmt.Sprintf("REGRESSION (bound ±%g)", m.Bound)
			regressed = true
		case better && 10*wins >= 9*pairs && math.Abs(mb-ma) > iqr:
			verdict = "gain"
		case (iqr > m.Bound*ma || iqrB > m.Bound*mb) && !beatsAll(a, b, lower):
			verdict = "unresolved"
		}
		fmt.Printf("| %s (%s) | %s | %s | %d/%d | %.3f | %s |\n",
			m.Name, m.Unit, spread(a), spread(b), wins, pairs, ratio, verdict)
	}
	if bad > 0 || regressed {
		return fmt.Errorf("%d incorrect run(s); regression: %v", bad, regressed)
	}
	return nil
}

// beatsAll reports whether every run of the change b beats every run of
// the parent a.
func beatsAll(a, b []float64, lower bool) bool {
	if lower {
		return slices.Max(b) < slices.Min(a)
	}
	return slices.Min(b) > slices.Max(a)
}

// readRun parses one run's standard output.
func readRun(path string) (run, error) {
	var r run
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 {
		return r, fmt.Errorf("%s: want a stamp line and a result line, got %d line(s)", path, len(lines))
	}
	head := struct {
		Stamp *stamp `json:"stamp"`
	}{&r.Stamp}
	if err := json.Unmarshal([]byte(lines[0]), &head); err != nil {
		return r, fmt.Errorf("%s: stamp: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.Result); err != nil {
		return r, fmt.Errorf("%s: result: %w", path, err)
	}
	return r, nil
}

func values(rs []run, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Result.Metrics[name].Value
	}
	return out
}

func spread(xs []float64) string {
	return fmt.Sprintf("%s [%s, %s]", num(quantile(xs, 0.5)), num(quantile(xs, 0.25)), num(quantile(xs, 0.75)))
}

// num prints four significant digits, without an exponent up to 10⁶.
func num(v float64) string {
	if math.Abs(v) >= 1e4 && math.Abs(v) < 1e6 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}
