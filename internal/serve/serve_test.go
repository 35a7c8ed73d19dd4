package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairbench/internal/dispatch"
	"fairbench/internal/engine"
	"fairbench/internal/experiments"
	"fairbench/internal/report"
	"fairbench/internal/sched"
)

// TestMain doubles as the worker subprocess body — the re-exec pattern
// the dispatch/sched/engine tests share. With FAIRBENCH_WORKER_DELAY_MS
// in its environment the worker pauses first, which is how tests hold a
// run open to observe saturation, streaming, and drain mid-run.
func TestMain(m *testing.M) {
	switch os.Getenv("FAIRBENCH_TEST_HELPER") {
	case "":
		os.Exit(m.Run())
	case "worker":
		idx, err := strconv.Atoi(os.Getenv("HELPER_SHARD"))
		if err == nil {
			err = dispatch.Worker(os.Getenv("HELPER_MANIFEST"), idx, os.Getenv("HELPER_OUT"))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(2)
}

func helperSpawn(extraEnv ...string) dispatch.SpawnFunc {
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"FAIRBENCH_TEST_HELPER=worker",
			"HELPER_MANIFEST="+manifestPath,
			"HELPER_SHARD="+strconv.Itoa(shard),
			"HELPER_OUT="+outPath,
		)
		cmd.Env = append(cmd.Env, extraEnv...)
		return cmd, nil
	}
}

func countingSpawn(n *atomic.Int64, extraEnv ...string) dispatch.SpawnFunc {
	inner := helperSpawn(extraEnv...)
	return func(manifestPath string, shard int, outPath string) (*exec.Cmd, error) {
		n.Add(1)
		return inner(manifestPath, shard, outPath)
	}
}

// smallSpec's fig23 grid has 4 cells and renders with no timing
// columns, so the served table is comparable byte-for-byte to a serial
// rendering of the same spec.
func smallSpec() experiments.Spec {
	return experiments.Spec{Experiment: "fig23", Dataset: "compas", N: 300, Seed: 6,
		Sizes: []int{60, 120}, Names: []string{"LR", "KamCal-DP"}}
}

// serialTable renders the spec's grid the way the serial CLI would —
// the reference the daemon's /table output must reproduce exactly.
func serialTable(t *testing.T, spec experiments.Spec) string {
	t.Helper()
	g, err := experiments.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := report.RenderOutput(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// newServer builds a Server with test defaults and mounts it on an
// httptest listener.
func newServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.StateDir == "" {
		cfg.StateDir = t.TempDir()
	}
	var so sched.Options
	if cfg.Run.Sched != nil {
		so = *cfg.Run.Sched
	}
	if so.Shards == 0 {
		so.Shards = 2
	}
	cfg.Run.Sched = &so
	if cfg.Run.Parallelism == 0 {
		cfg.Run.Parallelism = 2
	}
	if cfg.Spawn == nil {
		cfg.Spawn = helperSpawn()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, ts *httptest.Server, spec experiments.Spec) (int, runStatus, http.Header) {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st runStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, st, resp.Header
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func waitDone(t *testing.T, s *Server, id string) {
	t.Helper()
	s.mu.Lock()
	r, ok := s.runs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("no run %q", id)
	}
	select {
	case <-r.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("run %s still executing after 60s", id)
	}
}

// TestSubmitPollTable is the service's happy path: submit a grid, poll
// it to completion, and require the rendered table to be byte-identical
// to the serial CLI rendering of the same spec.
func TestSubmitPollTable(t *testing.T) {
	spec := smallSpec()
	want := serialTable(t, spec)
	s, ts := newServer(t, Config{Run: engine.RunOptions{CacheDir: t.TempDir()}})

	code, st, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted || st.Status != string(stateRunning) || st.Deduped {
		t.Fatalf("submit: code %d status %+v", code, st)
	}
	waitDone(t, s, st.ID)

	code, body, _ := get(t, ts.URL+"/runs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status: code %d body %s", code, body)
	}
	var done runStatus
	if err := json.Unmarshal([]byte(body), &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != string(stateDone) || done.CellsComputed != 4 ||
		done.PartsDone != 2 || done.PartsTotal != 2 ||
		done.Backend != "sched" || done.Fingerprint == "" {
		t.Fatalf("final status %+v", done)
	}

	code, table, hdr := get(t, ts.URL+"/runs/"+st.ID+"/table")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("table: code %d type %q", code, hdr.Get("Content-Type"))
	}
	if table != want {
		t.Fatalf("served table diverges from serial rendering:\n--- served ---\n%s--- serial ---\n%s", table, want)
	}
}

// TestConcurrentDuplicateSubmitsOneComputation: many clients submit the
// same grid at once; exactly one submission starts a computation, the
// rest dedupe onto it, and the worker spawn count proves the grid was
// executed once.
func TestConcurrentDuplicateSubmitsOneComputation(t *testing.T) {
	spec := smallSpec()
	var spawns atomic.Int64
	s, ts := newServer(t, Config{Spawn: countingSpawn(&spawns)})

	const clients = 8
	codes := make([]int, clients)
	statuses := make([]runStatus, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], statuses[i], _ = postSpec(t, ts, spec)
		}(i)
	}
	wg.Wait()

	accepted, deduped := 0, 0
	id := ""
	for i, code := range codes {
		switch code {
		case http.StatusAccepted:
			accepted++
			id = statuses[i].ID
		case http.StatusOK:
			deduped++
			if !statuses[i].Deduped {
				t.Fatalf("200 response without deduped flag: %+v", statuses[i])
			}
		default:
			t.Fatalf("unexpected submit code %d", code)
		}
	}
	if accepted != 1 || deduped != clients-1 {
		t.Fatalf("accepted %d deduped %d, want 1 and %d", accepted, deduped, clients-1)
	}
	waitDone(t, s, id)
	if n := spawns.Load(); n != 2 {
		t.Fatalf("%d worker spawns for %d duplicate submissions, want 2 (one per shard, one computation)", n, clients)
	}

	_, table, _ := get(t, ts.URL+"/runs/"+id+"/table")
	if table != serialTable(t, spec) {
		t.Fatal("deduped run's table diverges from serial rendering")
	}
	_, metrics, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, fmt.Sprintf("fairbench_runs_deduped_total %d", clients-1)) {
		t.Fatalf("metrics missing dedupe count:\n%s", metrics)
	}
}

// TestSaturationReturns429: with one run slot held by delayed workers, a
// distinct grid is rejected with 429 + Retry-After instead of queueing;
// after drain begins, submissions get 503.
func TestSaturationReturns429(t *testing.T) {
	s, ts := newServer(t, Config{
		MaxConcurrent: 1,
		Spawn:         helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	code, st, _ := postSpec(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("first submit: code %d", code)
	}

	other := smallSpec()
	other.Seed = 7 // distinct grid: no dedupe, needs its own slot
	code, _, hdr := postSpec(t, ts, other)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: code %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, hdr = postSpec(t, ts, other)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining submit: code %d Retry-After %q, want 503 with hint", code, hdr.Get("Retry-After"))
	}
	// The interrupted run is failed but resubmittable once slots free;
	// here we only assert its terminal state is visible.
	_, body, _ := get(t, ts.URL+"/runs/"+st.ID)
	if !strings.Contains(body, string(stateFailed)) {
		t.Fatalf("drained run status: %s", body)
	}
}

// TestBackToBackSubmitsNeverSee429 is a closed-loop client at
// MaxConcurrent=1: it submits distinct grids one after another, each as
// soon as it has polled the previous run's status to done. The finished
// run's slot must already be free by then, so no submission is rejected.
func TestBackToBackSubmitsNeverSee429(t *testing.T) {
	_, ts := newServer(t, Config{MaxConcurrent: 1})
	rejected := 0
	for seed := int64(20); seed < 26; seed++ {
		spec := smallSpec()
		spec.Seed = seed
		code, st, _ := postSpec(t, ts, spec)
		if code == http.StatusTooManyRequests {
			rejected++
			continue
		}
		if code != http.StatusAccepted {
			t.Fatalf("seed %d: submit code %d", seed, code)
		}
		deadline := time.Now().Add(60 * time.Second)
		for {
			_, body, _ := get(t, ts.URL+"/runs/"+st.ID)
			var cur runStatus
			if err := json.Unmarshal([]byte(body), &cur); err != nil {
				t.Fatalf("status %q: %v", body, err)
			}
			if cur.Status == string(stateDone) {
				break
			}
			if cur.Status == string(stateFailed) || time.Now().After(deadline) {
				t.Fatalf("seed %d: run ended as %+v", seed, cur)
			}
		}
	}
	if rejected != 0 {
		t.Fatalf("%d back-to-back submissions got 429 after the previous run read done", rejected)
	}
}

// TestFinishReleasesSlotBeforeDone pins the ordering behind the test
// above without racing a client: while the server lock is held, finish
// cannot release the run's slot, so the run must not yet read done.
func TestFinishReleasesSlotBeforeDone(t *testing.T) {
	s, _ := newServer(t, Config{MaxConcurrent: 1})
	r := &run{id: "ordering", dir: t.TempDir(), spec: smallSpec(), done: make(chan struct{}), started: time.Now()}
	s.mu.Lock()
	s.registerLocked(r)
	go s.finish(r, &experiments.Output{}, nil, nil)
	for end := time.Now().Add(50 * time.Millisecond); time.Now().Before(end); {
		r.mu.Lock()
		state := r.state
		r.mu.Unlock()
		if state != stateRunning {
			s.mu.Unlock()
			t.Fatalf("run reads %s while it still holds its admission slot", state)
		}
	}
	s.mu.Unlock()
	<-r.done
	s.mu.Lock()
	active := s.active
	s.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != stateDone || active != 0 {
		t.Fatalf("after finish: state %s, %d active runs; want done and 0", r.state, active)
	}
}

// TestDrainResumeMatchesSerial is the graceful-shutdown guarantee end to
// end: drain a daemon mid-run, start a new one over the same state dir,
// let ResumeInterrupted pick the run up, and require the final table to
// be byte-identical to serial.
func TestDrainResumeMatchesSerial(t *testing.T) {
	spec := smallSpec()
	state := t.TempDir()
	s1, ts1 := newServer(t, Config{
		StateDir: state,
		Spawn:    helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	code, st, _ := postSpec(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	// Wait for the run's plan to exist so the drain interrupts genuinely
	// started work (workers are holding the run open for 20s).
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body, _ := get(t, ts1.URL+"/runs/"+st.ID)
		var cur runStatus
		if err := json.Unmarshal([]byte(body), &cur); err == nil && cur.PartsTotal > 0 {
			if cur.Status != string(stateRunning) || cur.PartsTotal != 2 || cur.PartsDone != 0 {
				t.Fatalf("running run's status %+v, want running with 0 of 2 parts", cur)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("manifest never appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, ts2 := newServer(t, Config{StateDir: state, Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=1000")})
	resumed, err := s2.ResumeInterrupted()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d runs, want 1", resumed)
	}
	// The resumed run reads its plan on its first poll and stats the
	// part files on every one: 0 of 2 while its workers wait, 2 of 2
	// once done.
	checkParts := func(status runState, done int) {
		t.Helper()
		_, body, _ := get(t, ts2.URL+"/runs/"+st.ID)
		var cur runStatus
		if json.Unmarshal([]byte(body), &cur) != nil || cur.Status != string(status) ||
			cur.PartsTotal != 2 || cur.PartsDone != done {
			t.Fatalf("resumed run's status %s, want %s with %d of 2 parts", body, status, done)
		}
	}
	checkParts(stateRunning, 0)
	waitDone(t, s2, st.ID)
	checkParts(stateDone, 2)
	code, table, _ := get(t, ts2.URL+"/runs/"+st.ID+"/table")
	if code != http.StatusOK {
		t.Fatalf("table after resume: code %d body %s", code, table)
	}
	if table != serialTable(t, spec) {
		t.Fatal("resumed run's table diverges from serial rendering")
	}
	_, metrics, _ := get(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, "fairbench_runs_resumed_total 1") {
		t.Fatalf("metrics missing resume count:\n%s", metrics)
	}
}

// TestRestartServesCompletedRunWithoutRecompute: a completed run's
// output survives a daemon restart — the new daemon registers it done
// and serves its table with no computation at all.
func TestRestartServesCompletedRunWithoutRecompute(t *testing.T) {
	spec := smallSpec()
	state := t.TempDir()
	s1, ts1 := newServer(t, Config{StateDir: state})
	_, st, _ := postSpec(t, ts1, spec)
	waitDone(t, s1, st.ID)
	ts1.Close()

	var spawns atomic.Int64
	s2, ts2 := newServer(t, Config{StateDir: state, Spawn: countingSpawn(&spawns)})
	resumed, err := s2.ResumeInterrupted()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 0 {
		t.Fatalf("resumed %d, want 0 (run was complete)", resumed)
	}
	code, table, _ := get(t, ts2.URL+"/runs/"+st.ID+"/table")
	if code != http.StatusOK || table != serialTable(t, spec) {
		t.Fatalf("restarted daemon did not serve the completed run (code %d)", code)
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("restart spawned %d workers serving a completed run, want 0", n)
	}
}

// TestRetryAfterPrePlanFailureRunsFresh: a run that failed before its
// manifest was written has nothing to resume, so resubmitting its spec
// must run it fresh rather than fail again on the missing manifest.
func TestRetryAfterPrePlanFailureRunsFresh(t *testing.T) {
	spec := smallSpec()
	state := t.TempDir()
	id, err := RunID(spec)
	if err != nil {
		t.Fatal(err)
	}
	// A directory where the manifest belongs fails the first run while
	// it plans.
	blocker := filepath.Join(state, id, dispatch.ManifestName)
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	s, ts := newServer(t, Config{StateDir: state})
	status := func() runStatus {
		t.Helper()
		_, body, _ := get(t, ts.URL+"/runs/"+id)
		var st runStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if code, _, _ := postSpec(t, ts, spec); code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	waitDone(t, s, id)
	if st := status(); st.Status != string(stateFailed) {
		t.Fatalf("blocked run's status %+v, want failed", st)
	}

	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := postSpec(t, ts, spec); code != http.StatusAccepted {
		t.Fatalf("retry: code %d", code)
	}
	waitDone(t, s, id)
	if st := status(); st.Status != string(stateDone) {
		t.Fatalf("retried run's status %+v, want done", st)
	}
	code, table, _ := get(t, ts.URL+"/runs/"+id+"/table")
	if code != http.StatusOK || table != serialTable(t, spec) {
		t.Fatalf("retried run's table diverges from serial rendering (code %d)", code)
	}
}

// TestWarmSubmitServedFromCache: with a shared result store already
// holding every cell, a fresh daemon answers the grid itself —
// servedFromCache, computed=0, zero worker spawns.
func TestWarmSubmitServedFromCache(t *testing.T) {
	spec := smallSpec()
	cache := t.TempDir()
	s1, ts1 := newServer(t, Config{Run: engine.RunOptions{CacheDir: cache}})
	_, st, _ := postSpec(t, ts1, spec)
	waitDone(t, s1, st.ID)
	ts1.Close()

	var spawns atomic.Int64
	s2, ts2 := newServer(t, Config{Run: engine.RunOptions{CacheDir: cache}, Spawn: countingSpawn(&spawns)})
	code, st2, _ := postSpec(t, ts2, spec)
	if code != http.StatusAccepted {
		t.Fatalf("warm submit: code %d", code)
	}
	waitDone(t, s2, st2.ID)
	_, body, _ := get(t, ts2.URL+"/runs/"+st2.ID)
	var done runStatus
	if err := json.Unmarshal([]byte(body), &done); err != nil {
		t.Fatal(err)
	}
	if !done.ServedFromCache || done.CellsComputed != 0 || done.CellsCached != 4 {
		t.Fatalf("warm status %+v", done)
	}
	if n := spawns.Load(); n != 0 {
		t.Fatalf("warm run spawned %d workers, want 0", n)
	}
	_, table, _ := get(t, ts2.URL+"/runs/"+st2.ID+"/table")
	if table != serialTable(t, spec) {
		t.Fatal("cache-served table diverges from serial rendering")
	}
	_, metrics, _ := get(t, ts2.URL+"/metrics")
	if !strings.Contains(metrics, "fairbench_cells_cached_total 4") ||
		!strings.Contains(metrics, "fairbench_store_entries 4") {
		t.Fatalf("metrics missing store stats:\n%s", metrics)
	}
}

// TestStreamDeliversEveryRow: the chunked stream's shard events carry
// exactly the validated rows the merge will contain, and the stream
// terminates with a done event holding the final status.
func TestStreamDeliversEveryRow(t *testing.T) {
	spec := smallSpec()
	// One slot and a short delay stagger the two shards so the stream
	// observes them landing separately.
	s, ts := newServer(t, Config{
		Run:   engine.RunOptions{Parallelism: 1},
		Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=200"),
	})
	_, st, _ := postSpec(t, ts, spec)

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	cells := map[int]bool{}
	rows := 0
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "shard":
			for _, c := range ev.Cells {
				cells[c] = true
			}
			rows += len(ev.Rows)
		case "done":
			sawDone = true
			if ev.Status == nil || ev.Status.Status != string(stateDone) {
				t.Fatalf("done event status %+v", ev.Status)
			}
		case "failed":
			t.Fatalf("run failed: %+v", ev.Status)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream ended without a done event")
	}
	if len(cells) != 4 || rows != 4 {
		t.Fatalf("streamed %d distinct cells over %d rows, want 4 over 4", len(cells), rows)
	}
	waitDone(t, s, st.ID)
}

// streamEvents reads a run's whole /stream response.
func streamEvents(t *testing.T, url string) []streamEvent {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []streamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestStreamServesCachedRows: a run the result store served whole wrote
// no part, yet its stream carries every row from the daemon's store
// before "done", also after a restart; once an entry is evicted from
// the store the stream is "done" alone.
func TestStreamServesCachedRows(t *testing.T) {
	spec := smallSpec()
	cache, state := t.TempDir(), t.TempDir()
	s1, ts1 := newServer(t, Config{Run: engine.RunOptions{CacheDir: cache}})
	_, st, _ := postSpec(t, ts1, spec)
	waitDone(t, s1, st.ID)

	s2, ts2 := newServer(t, Config{StateDir: state, Run: engine.RunOptions{CacheDir: cache}})
	_, st, _ = postSpec(t, ts2, spec)
	waitDone(t, s2, st.ID)
	s3, ts3 := newServer(t, Config{StateDir: state, Run: engine.RunOptions{CacheDir: cache}})
	if _, err := s3.ResumeInterrupted(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []*httptest.Server{ts2, ts3} {
		evs := streamEvents(t, ts.URL+"/runs/"+st.ID+"/stream")
		var types []string
		cells, rows := map[int]bool{}, 0
		for _, ev := range evs {
			types = append(types, ev.Type)
			for _, c := range ev.Cells {
				cells[c] = true
			}
			rows += len(ev.Rows)
		}
		last := evs[len(evs)-1]
		if last.Type != "done" || !last.Status.ServedFromCache || len(cells) != 4 || rows != 4 {
			t.Fatalf("events %v streamed %d distinct cells over %d rows, want shards of 4 over 4 then a cache-served done",
				types, len(cells), rows)
		}
	}

	// Evict the last cell, so the cells before it could still be served:
	// the replay is all or nothing.
	var last string
	filepath.WalkDir(filepath.Join(cache, "cells"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".json") {
			last = path
		}
		return err
	})
	if last == "" || os.Remove(last) != nil {
		t.Fatal("no cache entry to evict")
	}
	if evs := streamEvents(t, ts3.URL+"/runs/"+st.ID+"/stream"); len(evs) != 1 || evs[0].Type != "done" {
		t.Fatalf("stream after an eviction: %+v, want done alone", evs)
	}
}

// TestRequestValidation: malformed submissions and unknown runs get the
// right error codes.
func TestRequestValidation(t *testing.T) {
	_, ts := newServer(t, Config{})

	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: code %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"experiment":"fig23","mystery":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: code %d", resp.StatusCode)
	}

	// A size beyond the dataset's paper size is refused before anything
	// is synthesized.
	resp, err = http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"experiment":"fig7","dataset":"german","n":1001,"seed":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("n above the paper size: code %d", resp.StatusCode)
	}

	code, _, _ := get(t, ts.URL+"/runs/nope")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run status: code %d", code)
	}
	code, _, _ = get(t, ts.URL+"/runs/nope/table")
	if code != http.StatusNotFound {
		t.Fatalf("unknown run table: code %d", code)
	}

	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
}

// TestTableWhileRunningConflicts: /table on an executing run answers
// 409 with a Retry-After hint instead of blocking or serving partial
// output.
func TestTableWhileRunningConflicts(t *testing.T) {
	s, ts := newServer(t, Config{
		Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=20000"),
	})
	_, st, _ := postSpec(t, ts, smallSpec())
	code, _, hdr := get(t, ts.URL+"/runs/"+st.ID+"/table")
	// The hint must be the same computed value admission control sends,
	// not an ad-hoc constant: a non-draining server says retryAfterBusy.
	if code != http.StatusConflict || hdr.Get("Retry-After") != retryAfterBusy {
		t.Fatalf("running table: code %d Retry-After %q, want 409 with %q",
			code, hdr.Get("Retry-After"), retryAfterBusy)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestBiasedSubmitServedEndToEnd: a bias-carrying GridSpec rides the
// HTTP submit path untouched — the daemon's table is byte-identical to
// the serial rendering of the same biased spec (bias setting in the
// title included), the status surfaces the coordinator's arch (the
// store partition the run hits), and the same grid at a different bias
// rate is a fresh computation, never a dedupe.
func TestBiasedSubmitServedEndToEnd(t *testing.T) {
	spec := smallSpec()
	spec.Bias, spec.BiasRate = experiments.BiasLabel, 0.2
	want := serialTable(t, spec)
	s, ts := newServer(t, Config{})

	code, st, _ := postSpec(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("biased submit: code %d", code)
	}
	waitDone(t, s, st.ID)

	code, body, _ := get(t, ts.URL+"/runs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status: code %d body %s", code, body)
	}
	var done runStatus
	if err := json.Unmarshal([]byte(body), &done); err != nil {
		t.Fatal(err)
	}
	if done.Status != string(stateDone) || done.Arch != runtime.GOARCH {
		t.Fatalf("final status %+v, want done with arch %q", done, runtime.GOARCH)
	}

	code, table, _ := get(t, ts.URL+"/runs/"+st.ID+"/table")
	if code != http.StatusOK {
		t.Fatalf("table: code %d", code)
	}
	if table != want {
		t.Fatalf("served biased table diverges from serial rendering:\n--- served ---\n%s--- serial ---\n%s", table, want)
	}

	other := spec
	other.BiasRate = 0.3
	code, st2, _ := postSpec(t, ts, other)
	if code != http.StatusAccepted || st2.Deduped || st2.ID == st.ID {
		t.Fatalf("different-rate submit: code %d status %+v, want a fresh run", code, st2)
	}
	waitDone(t, s, st2.ID)
	_, body, _ = get(t, ts.URL+"/runs/"+st2.ID)
	var done2 runStatus
	if err := json.Unmarshal([]byte(body), &done2); err != nil {
		t.Fatal(err)
	}
	if done2.Fingerprint == done.Fingerprint {
		t.Fatal("different bias rates share a fingerprint")
	}
	if done2.CellsComputed == 0 {
		t.Fatal("different-rate run computed nothing — it was served another rate's cells")
	}
}

// TestPoolRefusedWithoutHosts: a daemon without -hosts answers POST
// /pool with 409 even while a run executes. Its runs subscribe to the
// daemon's pool source like a hosted daemon's do, so this guard is what
// keeps a join off their one local host: the run finishes on "local"
// alone, which /metrics reports as that host's rows.
func TestPoolRefusedWithoutHosts(t *testing.T) {
	s, ts := newServer(t, Config{Spawn: helperSpawn("FAIRBENCH_WORKER_DELAY_MS=300")})
	_, st, _ := postSpec(t, ts, smallSpec())

	body := `{"join":[{"name":"intruder","slots":4}]}`
	resp, err := http.Post(ts.URL+"/pool", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /pool on a hostless daemon answered %d, want %d", resp.StatusCode, http.StatusConflict)
	}

	waitDone(t, s, st.ID)
	_, metrics, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(metrics, `fairbench_host_ranges_completed_total{host="local"} 2`) ||
		strings.Contains(metrics, "intruder") {
		t.Fatalf("hostless run did not finish on the local host alone:\n%s", metrics)
	}
}
