// Command perfbench is fairbench's end-to-end and per-layer benchmark.
//
// It drives the public API the way a user does — engine.Run in process
// and serve.Server over loopback HTTP — on one of four workloads, checks
// every output against a serial reference, and prints one JSON result
// line. With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, measured from spans the
// benchmark records around its own calls into each module plus a set of
// layer probes (see probes.go). Metric names and units are declared in
// BENCHMARK.json at the repository root; a run that would emit a
// different set of names fails.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig7-cold --seed 1 --seconds 10 --trace 0
//
// The binary re-executes itself as `worker` for the serve daemon's
// subprocess backend, so it speaks the dispatch worker protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// buildDir is where the benchmark keeps its scratch state, results and
// traces, relative to the repository root it runs from.
const buildDir = ".bench_build/perfbench"

// Set-up runs at least minSetupReps times; cheap set-ups keep repeating
// for setupWindow, up to maxSetupReps times.
const (
	minSetupReps = 3
	setupWindow  = time.Second
	maxSetupReps = 200
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		if err := workerMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// opRecord is one timed operation of the closed loop.
type opRecord struct {
	seconds float64
	traced  bool
	cells   int
	err     error
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "how long the timed loop runs")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	decl, err := readDeclared("BENCHMARK.json")
	if err != nil {
		return err
	}
	newWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}

	dir, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{seed: *seed, nproc: runtime.NumCPU(), dir: dir, tr: newTracer()}
	w := newWorkload(b)
	defer w.close()

	// Set-up runs several times from scratch and reports the median, so
	// work moved into set-up shows without one slow start deciding it.
	// Cheap set-ups repeat for at least setupWindow, so the median spans
	// more than one moment of a shared machine's load.
	var setups []float64
	setupStart := time.Now()
	for r := 0; r < minSetupReps || (r < maxSetupReps && time.Since(setupStart) < setupWindow); r++ {
		w.close()
		start := time.Now()
		if err := w.setup(b); err != nil {
			return fmt.Errorf("%s set-up: %w", *name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The closed loop: one client, the next op starts when the previous
	// one ends. A traced run alternates traced and untraced ops, so the
	// tracing overhead is measured inside one process on one machine
	// state.
	var ops []opRecord
	cpu0 := cpuSeconds()
	loopStart := time.Now()
	limit := time.Duration(*seconds) * time.Second
	minOps := 1 + *trace
	for i := 0; i < minOps || time.Since(loopStart) < limit; i++ {
		traced := *trace == 1 && i%2 == 1
		b.tr.enable(traced, i)
		root := b.tr.begin(0, "bench", "op")
		start := time.Now()
		cells, err := w.op(b, i, root)
		elapsed := time.Since(start).Seconds()
		b.tr.end(root)
		b.tr.enable(false, -1)
		ops = append(ops, opRecord{seconds: elapsed, traced: traced, cells: cells, err: err})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d: %v\n", *name, i, err)
		}
	}
	loopWall := time.Since(loopStart).Seconds()
	cpu := cpuSeconds() - cpu0

	mismatched, err := w.verify(b)
	if err != nil {
		return fmt.Errorf("%s verification: %w", *name, err)
	}
	failed, cells := 0, 0
	for i, op := range ops {
		if op.err != nil || mismatched[i] {
			failed++
			continue
		}
		cells += op.cells
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed or mismatched the serial reference\n", *name, failed, len(ops))
	}

	var times []float64
	for _, op := range ops {
		times = append(times, op.seconds)
	}
	summary := map[string]any{
		"ops":      len(ops),
		"op_p50_s": median(times),
	}
	if len(ops) >= 100 {
		summary["op_p90_s"] = quantile(times, 0.9)
	}
	metrics := map[string]metric{}
	kind := "end_to_end"
	if *trace == 0 {
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["op_p50_s"] = metric{median(times), "s"}
		metrics["cells_per_s"] = metric{float64(cells) / loopWall, "1/s"}
		metrics["cpu_per_op_s"] = metric{cpu / float64(len(ops)), "s"}
		metrics["max_rss_mb"] = metric{maxRSSMB(), "MiB"}
		metrics["ok_frac"] = metric{float64(len(ops)-failed) / float64(len(ops)), "frac"}
	} else {
		kind = "per_layer"
		if err := layerMetrics(b, w, ops, metrics); err != nil {
			return fmt.Errorf("%s layer probes: %w", *name, err)
		}
	}
	if err := checkNames(decl[kind], metrics); err != nil {
		return err
	}

	stamp := buildStamp()
	res := result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: metrics}
	if err := saveResult(*name, *seed, *trace, b, stamp, summary, times, setups, res); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{"stamp": stamp, "workload": *name, "summary": summary})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the shape the
// benchmark contract fixes.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// declared is one metric entry of BENCHMARK.json.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readDeclared loads the metric names BENCHMARK.json declares, keyed by
// "end_to_end" and "per_layer".
func readDeclared(path string) (map[string][]declared, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var doc struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return map[string][]declared{"end_to_end": doc.EndToEnd, "per_layer": doc.PerLayer}, nil
}

var namePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkNames fails unless the emitted metrics are exactly the declared
// ones, each with a valid name and the declared unit: a metric that
// silently vanished must never read as a green run.
func checkNames(want []declared, got map[string]metric) error {
	var errs []error
	seen := map[string]bool{}
	for _, d := range want {
		seen[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !namePattern.MatchString(d.Name):
			errs = append(errs, fmt.Errorf("declared metric name %q breaks the [A-Za-z0-9_.-] rule", d.Name))
		case !ok:
			errs = append(errs, fmt.Errorf("declared metric %q is missing from the result", d.Name))
		case m.Unit != d.Unit:
			errs = append(errs, fmt.Errorf("metric %q has unit %q, declared %q", d.Name, m.Unit, d.Unit))
		}
	}
	var extra []string
	for name := range got {
		if !seen[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		errs = append(errs, fmt.Errorf("metric %q is not declared in BENCHMARK.json", name))
	}
	return errors.Join(errs...)
}

// buildStamp records what the numbers ran on: a parallel figure must
// never be read without its CPU count.
func buildStamp() map[string]any {
	commit := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"go":         runtime.Version(),
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// saveResult writes the stamped result, and for a traced run the spans,
// under the build directory.
func saveResult(name string, seed int64, trace int, b *bench, stamp, summary map[string]any, opSeconds, setupSeconds []float64, res result) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", name, seed, trace))
	data, err := json.MarshalIndent(map[string]any{
		"stamp": stamp, "workload": name, "seed": seed, "summary": summary,
		"op_seconds": opSeconds, "setup_seconds": setupSeconds, "result": res,
	}, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", data, 0o644); err != nil {
		return err
	}
	if trace == 1 {
		return b.tr.write(base + ".spans.json")
	}
	return nil
}

// cpuSeconds is the user+system CPU time of this process and of its
// children that have been waited for.
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		total += tv(ru.Utime) + tv(ru.Stime)
	}
	return total
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// maxRSSMB is this process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
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

// envInt64 parses an integer environment variable, reporting whether it
// was set.
func envInt64(key string) (int64, bool) {
	v, err := strconv.ParseInt(os.Getenv(key), 10, 64)
	return v, err == nil
}
