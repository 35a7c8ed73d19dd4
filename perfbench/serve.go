package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/registry"
	"fairbench/internal/serve"
	"fairbench/internal/shard"
)

// pollInterval is the status poll period of the serve client. The
// daemon's /stream endpoint ticks every 100 ms, which would quantize the
// measured latency, so the client polls GET /runs/{id} instead.
const pollInterval = 2 * time.Millisecond

// serveWorkload submits a fresh Figure 7 grid to an in-process daemon
// over loopback HTTP on every op. The daemon runs each grid on its
// default backend: worker subprocesses (this binary, re-executed as
// `worker`) speaking the dispatch protocol.
type serveWorkload struct {
	stateDir string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	rep      int

	specs  map[int]experiments.Spec
	tables map[int]string
	stats  serveStats
}

// serveStats accumulates the per-layer figures of traced serve ops.
type serveStats struct {
	ops                  int
	submit, wait, table  []float64
	opSeconds            []float64
	opSpecs              []experiments.Spec
	polls                int
	workerWall, overhead []float64
	ranges               int
	spawns               int64
}

// workerSpan is what a traced worker subprocess reports about itself.
type workerSpan struct {
	Spawned    int64   `json:"spawned_unix_ns"`
	Ended      int64   `json:"ended_unix_ns"`
	RowSeconds float64 `json:"row_seconds"`
	// Workers is how many goroutines ran the cells.
	Workers int `json:"workers"`
}

// fig7Size is the cell count of a Figure 7 grid: the baseline plus every
// variant.
var fig7Size = 1 + len(registry.Names)

const (
	envWorkerSpans = "PERFBENCH_WORKER_SPANS"
	envSpawnedAt   = "PERFBENCH_SPAWNED_AT"
)

// opSpec is the grid op i submits: German n=300 under a seed no other op
// of the run uses, so no submission dedupes. Op -1 is the probes' grid.
func (w *serveWorkload) opSpec(b *bench, i int) experiments.Spec {
	return experiments.Spec{Experiment: "fig7", Dataset: "german", N: smallN, Seed: b.seed*100000 + int64(i) + 1}
}

func (w *serveWorkload) setup(b *bench) error {
	w.rep++
	w.specs, w.tables, w.stats = map[int]experiments.Spec{}, map[int]string{}, serveStats{}
	if err := materialize(b, w.opSpec(b, -1)); err != nil {
		return err
	}
	w.stateDir = filepath.Join(b.dir, fmt.Sprintf("serve-state%d", w.rep))
	spanFile := filepath.Join(b.dir, "worker-spans.jsonl")
	srv, err := serve.New(serve.Config{
		StateDir: w.stateDir,
		// The daemon reports a run done before it releases the run's
		// admission slot, so with one slot a closed-loop client's next
		// submission can be refused with 429. A second slot absorbs that
		// window; the one client still never has two runs executing.
		MaxConcurrent: 2,
		Spawn: func(manifest string, shardIdx int, out string) (*exec.Cmd, error) {
			cmd, err := dispatch.SelfExec(manifest, shardIdx, out)
			if err != nil {
				return nil, err
			}
			b.spawns.Add(1)
			if b.tr.enabled() {
				cmd.Env = append(os.Environ(), envWorkerSpans+"="+spanFile,
					envSpawnedAt+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
			}
			return cmd, nil
		},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.base = "http://" + ln.Addr().String()
	w.client = &http.Client{Timeout: 60 * time.Second}
	resp, err := w.client.Get(w.base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz answered %s", resp.Status)
	}
	return nil
}

// close stops the daemon and waits for its serving goroutine and runs.
func (w *serveWorkload) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Drain(ctx)
	w.client.CloseIdleConnections()
	os.RemoveAll(w.stateDir)
	w.hs, w.srv = nil, nil
}

// runStatus is the part of the daemon's run status the client reads.
type runStatus struct {
	ID      string `json:"id"`
	Status  string `json:"status"`
	Error   string `json:"error"`
	Deduped bool   `json:"deduped"`
}

func (w *serveWorkload) op(b *bench, i, parent int) (int, error) {
	spec := w.opSpec(b, i)
	w.specs[i] = spec
	traced := b.tr.enabled()
	spanFile := filepath.Join(b.dir, "worker-spans.jsonl")
	if traced {
		os.Remove(spanFile)
	}
	start := time.Now()
	spawns0 := b.spawns.Load()

	sp := b.tr.begin(parent, "serve", "submit")
	t0 := time.Now()
	st, err := w.submit(spec)
	submitS := time.Since(t0).Seconds()
	b.tr.end(sp)
	if err != nil {
		return 0, err
	}

	sp = b.tr.begin(parent, "serve", "wait")
	waitSpan := sp
	t0 = time.Now()
	polls := 0
	for st.Status == "running" {
		time.Sleep(pollInterval)
		polls++
		if st, err = w.status(st.ID); err != nil {
			b.tr.end(sp)
			return 0, err
		}
	}
	waitS := time.Since(t0).Seconds()
	b.tr.end(sp)
	if st.Status != "done" {
		return 0, fmt.Errorf("run %s ended %q: %s", st.ID, st.Status, st.Error)
	}

	sp = b.tr.begin(parent, "serve", "table")
	t0 = time.Now()
	table, err := w.get("/runs/" + st.ID + "/table")
	tableS := time.Since(t0).Seconds()
	b.tr.end(sp)
	if err != nil {
		return 0, err
	}
	w.tables[i] = stripTiming(table)
	if !traced {
		return fig7Size, nil
	}

	s := &w.stats
	s.ops++
	s.submit, s.wait, s.table = append(s.submit, submitS), append(s.wait, waitS), append(s.table, tableS)
	s.opSeconds = append(s.opSeconds, time.Since(start).Seconds())
	s.opSpecs = append(s.opSpecs, spec)
	s.polls += polls
	s.spawns += b.spawns.Load() - spawns0
	spans, err := readWorkerSpans(spanFile)
	if err != nil {
		return 0, err
	}
	for _, ws := range spans {
		wall := float64(ws.Ended-ws.Spawned) / 1e9
		s.workerWall = append(s.workerWall, wall)
		// The worker runs its cells on ws.Workers goroutines, so their
		// summed wall time over that count estimates its compute wall.
		s.overhead = append(s.overhead, wall-ws.RowSeconds/float64(max(ws.Workers, 1)))
		s.ranges++
		b.tr.add(waitSpan, "dispatch", "Worker", time.Unix(0, ws.Spawned), time.Unix(0, ws.Ended))
	}
	return fig7Size, nil
}

func (w *serveWorkload) submit(spec experiments.Spec) (runStatus, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return runStatus{}, err
	}
	resp, err := w.client.Post(w.base+"/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return runStatus{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return runStatus{}, err
	}
	if resp.StatusCode != http.StatusAccepted {
		// 429 (refused), 200 (deduped onto another run) and every other
		// answer count as a failed op.
		return runStatus{}, fmt.Errorf("POST /runs answered %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return runStatus{}, err
	}
	if st.Deduped {
		return runStatus{}, fmt.Errorf("run %s deduped onto an earlier submission", st.ID)
	}
	return st, nil
}

func (w *serveWorkload) status(id string) (runStatus, error) {
	data, err := w.get("/runs/" + id)
	if err != nil {
		return runStatus{}, err
	}
	var st runStatus
	err = json.Unmarshal([]byte(data), &st)
	return st, err
}

func (w *serveWorkload) get(path string) (string, error) {
	resp, err := w.client.Get(w.base + path)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s answered %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return string(data), nil
}

func (w *serveWorkload) verify(b *bench) (map[int]bool, error) {
	var specs []experiments.Spec
	for i := range w.tables {
		specs = append(specs, w.specs[i])
	}
	if err := b.serialReferences(specs); err != nil {
		return nil, err
	}
	bad := map[int]bool{}
	for i, t := range w.tables {
		ref, err := b.serialReference(w.specs[i])
		if err != nil {
			return nil, err
		}
		if t != ref.table {
			bad[i] = true
		}
	}
	return bad, nil
}

func (w *serveWorkload) probe(b *bench) probeInputs {
	spec := w.opSpec(b, -1)
	return probeInputs{primary: spec, opSpecs: []experiments.Spec{spec}, serve: &w.stats}
}

// bareEngineSeconds is the median wall time of a plain in-process
// engine.Run over the specs: what a served op costs without the daemon.
func bareEngineSeconds(b *bench, specs []experiments.Spec) (float64, error) {
	var secs []float64
	for _, spec := range specs {
		start := time.Now()
		sp := b.tr.begin(0, "engine", "Run")
		_, _, err := engine.New(engine.RunOptions{}).Run(context.Background(), spec, engine.RunOptions{})
		b.tr.end(sp)
		if err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

func readWorkerSpans(path string) ([]workerSpan, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []workerSpan
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ws workerSpan
		if err := json.Unmarshal(sc.Bytes(), &ws); err != nil {
			return nil, fmt.Errorf("worker span %q: %w", sc.Text(), err)
		}
		spans = append(spans, ws)
	}
	return spans, sc.Err()
}

// workerMain is the `worker` subcommand the daemon spawns: the real
// dispatch.Worker, plus, when the spawning op is traced, one span line
// recording the worker's wall time from spawn until its envelope is
// written and the fit time of the cells it produced.
func workerMain(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	manifest := fs.String("manifest", "", "manifest path")
	shardIdx := fs.Int("shard", -1, "shard index")
	out := fs.String("out", "", "envelope output path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := dispatch.Worker(*manifest, *shardIdx, *out); err != nil {
		return err
	}
	ended := time.Now().UnixNano()
	spanFile := os.Getenv(envWorkerSpans)
	spawned, ok := envInt64(envSpawnedAt)
	if spanFile == "" || !ok {
		return nil
	}
	data, err := os.ReadFile(*out)
	if err != nil {
		return err
	}
	env, err := shard.Decode(data)
	if err != nil {
		return err
	}
	ws := workerSpan{Spawned: spawned, Ended: ended, Workers: min(runtime.GOMAXPROCS(0), len(env.Rows))}
	for _, raw := range env.Rows {
		var c experiments.Cell
		if err := json.Unmarshal(raw, &c); err != nil {
			return err
		}
		ws.RowSeconds += cellSeconds(c)
	}
	line, err := json.Marshal(ws)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(spanFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellSeconds is the fit+predict wall time a cell recorded.
func cellSeconds(c experiments.Cell) float64 {
	switch {
	case c.Row != nil:
		return c.Row.Seconds
	case c.Sens != nil:
		return c.Sens.Row.Seconds
	case c.Seconds != nil:
		return *c.Seconds
	}
	return 0
}
