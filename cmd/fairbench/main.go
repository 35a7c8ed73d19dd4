// Command fairbench regenerates the paper's evaluation artifacts from the
// command line:
//
//	fairbench list                        enumerate approaches and stages
//	fairbench eval   -dataset compas -approach KamCal-DP
//	fairbench fig7   [-dataset adult|compas|german|all] [-n N]
//	fairbench fig8   [-n N]               efficiency & scalability sweeps
//	fairbench fig9   [-n N]               robustness to data errors (T1-T3)
//	fairbench fig10  [-n N]               model sensitivity (pre/post x 5)
//	fairbench cv     [-dataset ...] [-k 5]  cross-validation tables
//	fairbench fig22  [-runs 10] [-n N]    stability
//	fairbench fig23  [-n N]               data efficiency
//	fairbench merge  part0.json part1.json ...   combine shard envelopes
//	fairbench dispatch -exp fig7 ... -dir DIR    run a grid as subprocesses
//	fairbench resume   -dir DIR                  finish an interrupted dispatch
//	fairbench sched  -exp fig7 ... -dir DIR -hosts hosts.json   multi-host run
//	fairbench serve  -state DIR [-addr HOST:PORT]    benchmark-as-a-service daemon
//	fairbench worker   -manifest M -shard I -out O   (spawned by dispatch/sched)
//
// Every figure command runs its grid (one per dataset for fig7, fig15
// and cv under -dataset all; both grids for fig8) on the engine's
// in-process backend — the grid a dispatched, scheduled, or served run
// of the same flags merges into, so all of them print the same tables.
//
// -n caps the generated dataset size (0 = the paper's full size, and at
// most that size: Adult 45222, COMPAS 7214, German 1000); smaller values
// keep exploratory runs fast. -parallel N sets the experiment
// worker-pool size (0 = GOMAXPROCS, 1 = serial): metric columns are
// identical at any setting for a fixed seed, while the incidental
// overhead column of the metric experiments reflects the selected
// concurrency. The pure timing experiment (fig8) always measures with
// one worker so its overhead curves stay contention-free.
//
// -cache DIR (any figure command, dispatch, sched, or -shard run) names
// the on-disk result cache: cells already computed for the same grid
// fingerprint, seed, and architecture are served from disk, so re-runs
// only compute what is missing while printing byte-identical metric
// columns. A figure command reports on stderr how many cells it
// computed and how many the cache served.
//
// -bias MODEL -bias-rate R [-bias-rate-neg R] (any figure command,
// dispatch, or sched) inject parameterized data bias into the training
// distribution before the grid runs: `-bias under` drops unprivileged
// tuples stratified by label (β⁺ = -bias-rate, β⁻ = -bias-rate-neg),
// `-bias label` flips unprivileged labels at rate ν = -bias-rate.
// Injection is seeded and deterministic, and the bias setting is part of
// the grid fingerprint, so shards, caches, and merges never mix bias
// settings. See the README's "Scenario axis" section.
//
// -cpuprofile FILE / -memprofile FILE (any command) record a pprof
// CPU or allocation profile of the run, so performance work on the
// figure commands starts from a measured profile rather than a guess:
//
//	fairbench fig7 -dataset german -n 300 -cpuprofile cpu.prof
//	go tool pprof cpu.prof
//
// # Sharded execution
//
// Any figure command can run as one shard of its job grid and emit a
// JSON partial-result envelope instead of tables:
//
//	fairbench fig7 -dataset compas -shard 0/3 -out part0.json
//	fairbench fig7 -dataset compas -shard 1/3 -out part1.json   # any host
//	fairbench fig7 -dataset compas -shard 2/3 -out part2.json   # any host
//	fairbench merge part0.json part1.json part2.json
//
// The merged tables are byte-identical (timing columns aside) to the
// single-process run with the same flags, because the datasets are
// synthesized from the seed: the (experiment, dataset, n, seed, …) spec
// embedded in each envelope fully determines every grid cell. merge
// rejects envelopes whose grid fingerprints disagree — naming the
// offending file — and an incomplete set fails listing the shard
// indices still missing. Commands that span several datasets (-dataset
// all) or grids shard one grid at a time: pick a single dataset, and
// for fig8 pick -grid rows or -grid attrs.
//
// # Dispatch and resume
//
// dispatch drives the whole shard→merge flow itself: it splits the grid
// -shards ways, runs up to -procs worker subprocesses (each a `fairbench
// worker` re-exec of this binary), retries failures -retries times,
// collects the envelopes under -dir, and prints the merged tables. The
// directory plus the -cache store make the run resumable: if dispatch is
// interrupted — or a worker is SIGKILLed with no retries left — the
// completed envelopes and cached cells survive, and
//
//	fairbench dispatch -exp fig7 -dataset german -shards 8 -procs 4 \
//	    -dir run -cache cache
//	# ... interrupted ...
//	fairbench resume -dir run -procs 4
//
// finishes only the missing work and prints tables byte-identical
// (timing aside) to an uninterrupted serial run.
//
// # Multi-host scheduling
//
// sched generalizes dispatch to a pool of hosts described by a
// hosts.json file (a JSON array of {name, slots, transport, cmd}
// objects; see the README's "Multi-host execution" section). Local
// hosts re-exec this binary's worker subcommand; remote hosts run a
// worker binary through an arbitrary command prefix (typically ssh)
// with the manifest streamed over stdin and the envelope back over
// stdout — which is what `worker -manifest - -shard I -out -`
// implements, so no shared filesystem is needed. Planning is cache-aware: with -cache,
// ranges already fully computed are served by the coordinator and the
// rest are balanced across hosts by uncached cell count. Failed
// attempts move to other hosts, hosts silent past -heartbeat are
// declared dead, and repeatedly failing hosts are excluded:
//
//	fairbench sched -exp fig7 -dataset german -shards 8 \
//	    -hosts hosts.json -dir run -cache cache
//
// prints tables byte-identical (timing aside) to the serial run, or
// fails naming the missing ranges with the directory resumable by
// `sched` (same flags) or `resume -dir run`.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"fairbench"
	"fairbench/internal/dispatch"
	"fairbench/internal/experiments"
	"fairbench/internal/fair"
	"fairbench/internal/registry"
	"fairbench/internal/report"
	"fairbench/internal/sched"
	"fairbench/internal/serve"
	"fairbench/internal/store"
)

// shardableCommands maps figure commands to their grid experiment names
// (fig8 resolves through -grid since it spans two grids).
var shardableCommands = map[string]string{
	"fig7": "fig7", "fig9": "fig9", "fig10": "fig10", "fig15": "fig15",
	"cv": "cv", "fig22": "fig22", "fig23": "fig23",
}

// parallelism carries the parsed -parallel value into every grid
// command as RunOptions.Parallelism (0 = one worker per CPU).
var parallelism int

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	datasetFlag := fs.String("dataset", "all", "adult|compas|german|all")
	approachFlag := fs.String("approach", "", "approach name for eval (see list)")
	nFlag := fs.Int("n", 0, "dataset size cap, at most the paper size (0 = paper size: adult 45222, compas 7214, german 1000)")
	kFlag := fs.Int("k", 5, "cross-validation folds")
	runsFlag := fs.Int("runs", 10, "stability runs")
	seedFlag := fs.Int64("seed", 1, "global seed")
	parallelFlag := fs.Int("parallel", 0, "experiment worker goroutines (0 = GOMAXPROCS; 1 = serial, for contention-free timing)")
	shardFlag := fs.String("shard", "", "run one shard i/K (0-based) of the command's job grid and emit a JSON envelope instead of tables")
	outFlag := fs.String("out", "", "file for the -shard envelope or the merged-output JSON (default: envelope to stdout; merge prints tables only)")
	gridFlag := fs.String("grid", "rows", "which fig8 grid to shard: rows|attrs")
	cacheFlag := fs.String("cache", "", "result-cache directory: serve already-computed cells from disk, write fresh ones back")
	remoteStoreFlag := fs.String("remote-store", "", "shared result-store base URL (a fairbench cachesrv or serve daemon's /cache): read-through behind -cache, every entry verified before use")
	biasFlag := fs.String("bias", "", "bias-injection model applied to the training data: under|label (default: clean data)")
	biasRateFlag := fs.Float64("bias-rate", 0, "bias rate: under-representation's positive-label drop rate β⁺, or label bias's flip rate ν")
	biasRateNegFlag := fs.Float64("bias-rate-neg", 0, "under-representation's negative-label drop rate β⁻")
	expFlag := fs.String("exp", "", "dispatch: grid experiment name (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	dirFlag := fs.String("dir", "", "dispatch/resume: dispatch directory holding the manifest and part files")
	shardsFlag := fs.Int("shards", 0, "dispatch: k-way shard split (default: -procs)")
	procsFlag := fs.Int("procs", 0, "dispatch/resume: max concurrent worker subprocesses (default: GOMAXPROCS)")
	retriesFlag := fs.Int("retries", 1, "dispatch/resume: re-spawns per failed shard; sched: extra full rounds over the pool (negative = none)")
	manifestFlag := fs.String("manifest", "", "worker: manifest file of the dispatch directory (- reads it from stdin)")
	hostsFlag := fs.String("hosts", "", "sched: hosts.json pool definition (default: one local host with -procs slots)")
	heartbeatFlag := fs.Duration("heartbeat", 60*time.Second, "sched: declare a host dead after this long without a transport heartbeat")
	maxHostFailFlag := fs.Int("max-host-failures", 3, "sched: exclude a host after this many failed attempts")
	speculateFlag := fs.Bool("speculate", false, "sched: re-launch straggling ranges on idle hosts; first valid part wins")
	backoffFlag := fs.Duration("backoff", 0, "sched: base delay before retrying a failed range, doubling per attempt with jitter (0 = 100ms default, negative = retry immediately)")
	watchHostsFlag := fs.Duration("watch-hosts", 0, "sched: re-read -hosts at this interval; added hosts join mid-run, removed hosts drain (0 = off)")
	localFallbackFlag := fs.Bool("local-fallback", true, "sched: when every host is lost, finish the remaining ranges in-process (report marks the run degraded)")
	addrFlag := fs.String("addr", "127.0.0.1:8080", "serve: HTTP listen address")
	stateFlag := fs.String("state", "", "serve: state directory (one resumable run directory per grid)")
	maxRunsFlag := fs.Int("max-runs", 1, "serve: concurrently executing runs before submissions get 429")
	cpuProfFlag := fs.String("cpuprofile", "", "write a CPU profile of this command to the file (inspect with go tool pprof)")
	memProfFlag := fs.String("memprofile", "", "write an allocation profile of this command to the file (inspect with go tool pprof)")
	fs.Parse(os.Args[2:])
	parallelism = *parallelFlag
	exitIf(startProfiles(*cpuProfFlag, *memProfFlag))
	bias := biasSpec{model: *biasFlag, rate: *biasRateFlag, rateNeg: *biasRateNegFlag}

	if cmd == "worker" {
		// dispatch spawns `worker -shard I`: here -shard is the bare shard
		// index, not the figure commands' i/K form.
		idx, err := strconv.Atoi(*shardFlag)
		if err != nil {
			exit(fmt.Errorf("worker needs -shard <index>, got %q", *shardFlag))
		}
		exit(cmdWorker(*manifestFlag, idx, *outFlag))
	}

	if cmd == "sched" {
		exit(cmdSched(*expFlag, *datasetFlag, *nFlag, *kFlag, *runsFlag, *seedFlag, bias,
			*dirFlag, *cacheFlag, *remoteStoreFlag, *hostsFlag, *shardsFlag, *procsFlag, *retriesFlag,
			*maxHostFailFlag, *heartbeatFlag, *speculateFlag, *backoffFlag,
			*watchHostsFlag, *localFallbackFlag, *outFlag))
	}

	if cmd == "serve" {
		exit(cmdServe(*addrFlag, *stateFlag, *cacheFlag, *remoteStoreFlag, *hostsFlag,
			*shardsFlag, *procsFlag, *retriesFlag, *maxRunsFlag,
			*maxHostFailFlag, *heartbeatFlag, *speculateFlag, *backoffFlag,
			*localFallbackFlag))
	}

	if cmd == "cachesrv" {
		exit(cmdCacheSrv(*addrFlag, *dirFlag))
	}

	if cmd == "fingerprint" {
		exit(cmdFingerprint(*expFlag, *datasetFlag, *nFlag, *kFlag, *runsFlag, *seedFlag, bias))
	}

	if *shardFlag != "" {
		spec, err := specFor(cmd, *datasetFlag, *nFlag, *kFlag, *runsFlag, *gridFlag, *seedFlag, bias)
		if err == nil {
			err = cmdShard(spec, *shardFlag, *outFlag, *cacheFlag, *remoteStoreFlag)
		}
		exit(err)
	}

	figure := func(c, ds, out string) error {
		return cmdFigure(c, ds, *nFlag, *kFlag, *runsFlag, *gridFlag, *seedFlag, bias,
			*cacheFlag, *remoteStoreFlag, out)
	}
	if _, ok := shardableCommands[cmd]; ok || cmd == "fig8" {
		exit(figure(cmd, *datasetFlag, *outFlag))
	}
	if bias.set() && cmd != "dispatch" {
		exit(fmt.Errorf("-bias/-bias-rate/-bias-rate-neg apply to figure, dispatch, and sched commands, not %q", cmd))
	}

	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "eval":
		err = cmdEval(*datasetFlag, *approachFlag, *nFlag, *seedFlag)
	case "merge":
		err = cmdMerge(fs.Args(), *outFlag)
	case "dispatch":
		err = cmdDispatch(*expFlag, *datasetFlag, *nFlag, *kFlag, *runsFlag, *seedFlag, bias,
			*dirFlag, *cacheFlag, *remoteStoreFlag, *shardsFlag, *procsFlag, *retriesFlag, *outFlag)
	case "resume":
		err = cmdResume(*dirFlag, *procsFlag, *retriesFlag, *outFlag)
	case "all":
		for _, c := range []string{"fig7", "fig8", "fig9", "fig10", "cv", "fig22", "fig23"} {
			if err = figure(c, "all", ""); err != nil {
				break
			}
		}
	default:
		stopProfiles() // flush any -cpuprofile/-memprofile started above
		usage()
		os.Exit(2)
	}
	exit(err)
}

func exit(err error) {
	exitIf(err)
	stopProfiles()
	os.Exit(0)
}

// exitIf reports err and exits non-zero, or returns having done nothing.
// Profiles are flushed even on the error path so a crashing run still
// leaves its evidence behind.
func exitIf(err error) {
	if err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "fairbench:", err)
		os.Exit(1)
	}
}

// stopProfiles flushes any active profiles; exit paths call it explicitly
// because os.Exit skips deferred functions. Reassigned by startProfiles.
var stopProfiles = func() {}

// startProfiles enables the -cpuprofile/-memprofile outputs. Future perf
// work on the figure commands starts from one of these profiles, not
// from a guess:
//
//	fairbench fig7 -dataset german -n 300 -cpuprofile cpu.prof
//	go tool pprof cpu.prof
func startProfiles(cpuPath, memPath string) error {
	if cpuPath == "" && memPath == "" {
		return nil
	}
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		cpuFile = f
	}
	stopProfiles = func() {
		stopProfiles = func() {} // idempotent: exit paths may overlap
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -cpuprofile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "fairbench: wrote CPU profile to %s\n", cpuPath)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -memprofile:", err)
				return
			}
			runtime.GC() // materialize up-to-date allocation statistics
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "fairbench: -memprofile:", err)
			} else {
				fmt.Fprintf(os.Stderr, "fairbench: wrote allocation profile to %s\n", memPath)
			}
			f.Close()
		}
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fairbench <list|eval|fig7|fig8|fig9|fig10|fig15|cv|fig22|fig23|merge|all> [flags]
       fairbench <figN|cv|all> [-dataset D] [-n N] [-seed S] [-parallel P]
                 [-cache DIR] [-remote-store URL] [-out merged.json]
                 run the figure's grids in process (n at most the paper size)
       fairbench <figN|cv> ... [-bias under|label -bias-rate R [-bias-rate-neg R]]
                 inject parameterized data bias (grid commands only)
       fairbench <figN|cv> ... -shard i/K [-out part.json] [-cache DIR]  run one grid shard
       fairbench merge part0.json part1.json ...                         combine shards
       fairbench dispatch -exp <figN|cv|fig8rows|fig8attrs> [figure flags]
                 -dir DIR [-shards K] [-procs N] [-retries R]
                 [-cache DIR] [-remote-store URL]
       fairbench resume -dir DIR [-procs N] [-retries R]                 finish an interrupted dispatch
       fairbench sched -exp <figN|cv|fig8rows|fig8attrs> [figure flags] -dir DIR
                 [-hosts hosts.json] [-shards K] [-cache DIR] [-remote-store URL]
                 [-retries R] [-heartbeat 60s] [-max-host-failures 3] [-speculate]
                 [-backoff 100ms] [-watch-hosts 5s] [-local-fallback]    multi-host run
       fairbench serve -state DIR [-addr 127.0.0.1:8080] [-cache DIR]
                 [-remote-store URL] [-hosts hosts.json] [-shards K] [-procs N]
                 [-retries R] [-max-runs 1] [-speculate] [-backoff 100ms]
                 benchmark-as-a-service daemon (also serves /cache)
       fairbench cachesrv -dir DIR [-addr 127.0.0.1:8080]                standalone shared result store
       fairbench fingerprint -exp <figN|cv|fig8rows|fig8attrs> [figure flags]
                 print the grid's store/cache fingerprint (CI cache key)`)
}

// biasSpec collects the bias-injection flags shared by every grid
// command; zero value = clean data.
type biasSpec struct {
	model         string
	rate, rateNeg float64
}

// set marks whether any bias flag was given (spec validation then
// decides whether the combination is coherent).
func (b biasSpec) set() bool { return b.model != "" || b.rate != 0 || b.rateNeg != 0 }

// apply copies the flags onto a grid spec.
func (b biasSpec) apply(spec fairbench.GridSpec) fairbench.GridSpec {
	spec.Bias = b.model
	spec.BiasRate = b.rate
	spec.BiasRateNeg = b.rateNeg
	return spec
}

// gridSpecFor assembles the grid spec the dispatch-style commands
// (dispatch, sched) describe with their flags.
func gridSpecFor(exp, ds string, n, k, runs int, seed int64, bias biasSpec) fairbench.GridSpec {
	spec := fairbench.GridSpec{Experiment: exp, N: n, Seed: seed}
	if ds != "" && !strings.EqualFold(ds, "all") {
		spec.Dataset = ds
	}
	switch strings.ToLower(exp) {
	case "cv":
		spec.K = k
	case "fig22":
		spec.Runs = runs
	}
	return bias.apply(spec)
}

// signalContext is the run context of the long-running commands:
// SIGINT/SIGTERM cancel it, which stops the engine promptly and leaves
// directory-backed runs resumable.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// cmdDispatch runs a grid as worker subprocesses and prints the merged
// tables, exactly as the serial figure command would print them.
func cmdDispatch(exp, ds string, n, k, runs int, seed int64, bias biasSpec,
	dir, cache, remoteStore string, shards, procs, retries int, out string) error {
	if exp == "" {
		return fmt.Errorf("dispatch requires -exp (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	}
	if dir == "" {
		return fmt.Errorf("dispatch requires -dir (the resumable dispatch directory)")
	}
	ctx, stop := signalContext()
	defer stop()
	spec := gridSpecFor(exp, ds, n, k, runs, seed, bias)
	merged, rep, err := fairbench.Run(ctx, spec, fairbench.RunOptions{
		Backend: fairbench.BackendDispatch,
		Dir:     dir, Shards: shards, Procs: procs, Retries: retries,
		Parallelism: parallelism, CacheDir: cache, RemoteStore: remoteStore, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	return renderRun(merged, rep, nil, out)
}

func cmdResume(dir string, procs, retries int, out string) error {
	if dir == "" {
		return fmt.Errorf("resume requires -dir (the dispatch directory to finish)")
	}
	ctx, stop := signalContext()
	defer stop()
	merged, rep, err := fairbench.ResumeRun(ctx, dir, fairbench.RunOptions{
		Procs: procs, Retries: retries, Parallelism: parallelism, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	return renderRun(merged, rep, nil, out)
}

// cmdSched runs a grid across a pool of hosts and prints the merged
// tables — the serial figure command's output, fault-tolerantly.
func cmdSched(exp, ds string, n, k, runs int, seed int64, bias biasSpec, dir, cache, remoteStore, hostsPath string,
	shards, procs, retries, maxHostFailures int, heartbeat time.Duration,
	speculate bool, backoff, watchHosts time.Duration, localFallback bool, out string) error {
	if exp == "" {
		return fmt.Errorf("sched requires -exp (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	}
	if dir == "" {
		return fmt.Errorf("sched requires -dir (the resumable sched directory)")
	}
	var hosts []fairbench.SchedHost
	if hostsPath != "" {
		var err error
		if hosts, err = fairbench.LoadHosts(hostsPath); err != nil {
			return err
		}
	} else if procs > 0 {
		hosts = []fairbench.SchedHost{{Name: "local", Slots: procs}}
	}
	var pool fairbench.PoolSource
	if watchHosts > 0 {
		if hostsPath == "" {
			return fmt.Errorf("-watch-hosts requires -hosts (the file to re-read)")
		}
		w, err := sched.WatchHosts(hostsPath, watchHosts)
		if err != nil {
			return err
		}
		defer w.Close()
		pool = w
	}
	ctx, stop := signalContext()
	defer stop()
	merged, rep, err := fairbench.Run(ctx, gridSpecFor(exp, ds, n, k, runs, seed, bias), fairbench.RunOptions{
		Backend: fairbench.BackendSched,
		Dir:     dir, Hosts: hosts, Shards: shards, CacheDir: cache, RemoteStore: remoteStore,
		HeartbeatTimeout: heartbeat, Retries: retries, MaxHostFailures: maxHostFailures,
		Speculate: speculate, Backoff: backoff, LocalFallback: localFallback, PoolSource: pool,
		Parallelism: parallelism, Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	return renderRun(merged, rep, nil, out)
}

// cmdServe runs the benchmark-as-a-service daemon: grids submitted
// over HTTP execute on the same engine the dispatch/sched commands
// use, deduplicated by grid fingerprint and checkpointed under -state.
// SIGTERM/SIGINT drain gracefully; interrupted runs resume on restart.
func cmdServe(addr, stateDir, cache, remoteStore, hostsPath string,
	shards, procs, retries, maxRuns, maxHostFailures int, heartbeat time.Duration,
	speculate bool, backoff time.Duration, localFallback bool) error {
	if stateDir == "" {
		return fmt.Errorf("serve requires -state (the daemon's run-state directory)")
	}
	var hosts []fairbench.SchedHost
	if hostsPath != "" {
		var err error
		if hosts, err = fairbench.LoadHosts(hostsPath); err != nil {
			return err
		}
	}
	srv, err := serve.New(serve.Config{
		StateDir: stateDir, CacheDir: cache, RemoteStore: remoteStore, MaxConcurrent: maxRuns,
		Shards: shards, Procs: procs, Retries: retries, Parallelism: parallelism,
		Hosts: hosts, HeartbeatTimeout: heartbeat, MaxHostFailures: maxHostFailures,
		Speculate: speculate, Backoff: backoff, LocalFallback: localFallback,
		Log: os.Stderr,
	})
	if err != nil {
		return err
	}
	if resumed, err := srv.ResumeInterrupted(); err != nil {
		return err
	} else if resumed > 0 {
		fmt.Fprintf(os.Stderr, "fairbench: serve: resumed %d interrupted run(s)\n", resumed)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	ctx, stop := signalContext()
	defer stop()
	fmt.Fprintf(os.Stderr, "fairbench: serving on http://%s (state %s)\n", ln.Addr(), stateDir)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "fairbench: serve: draining — in-flight runs checkpoint and resume on the next start")
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drainErr := srv.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && drainErr == nil {
		drainErr = err
	}
	if drainErr == nil {
		fmt.Fprintln(os.Stderr, "fairbench: serve: drained cleanly")
	}
	return drainErr
}

// cmdCacheSrv runs the standalone shared result store: an on-disk
// store exposed over the content-addressed /cache HTTP protocol the
// -remote-store clients speak. Every PUT body is verified before it
// is stored; every GET re-encodes an already-verified entry.
func cmdCacheSrv(addr, dir string) error {
	if dir == "" {
		return fmt.Errorf("cachesrv requires -dir (the on-disk store directory it serves)")
	}
	ds, err := store.Open(dir)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/cache/", http.StripPrefix("/cache", store.Handler(ds)))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: mux}
	ctx, stop := signalContext()
	defer stop()
	fmt.Fprintf(os.Stderr, "fairbench: cachesrv: serving %s on http://%s/cache\n", dir, ln.Addr())
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		return err
	}
	c := ds.Counters()
	fmt.Fprintf(os.Stderr, "fairbench: cachesrv: stopped — hits=%d misses=%d writes=%d rejected=%d\n",
		c.Hits, c.Misses, c.Writes, c.Rejected)
	return nil
}

// cmdFingerprint prints the fingerprint of the grid the flags
// describe — the address prefix the result store keys its cells
// under. CI keys its cross-run cache (actions/cache) on this value so
// a grid change invalidates the cache exactly when the keys change.
func cmdFingerprint(exp, ds string, n, k, runs int, seed int64, bias biasSpec) error {
	if exp == "" {
		return fmt.Errorf("fingerprint requires -exp (fig7|fig9|fig10|fig15|cv|fig22|fig23|fig8rows|fig8attrs)")
	}
	fp, err := fairbench.GridFingerprint(gridSpecFor(exp, ds, n, k, runs, seed, bias))
	if err != nil {
		return err
	}
	fmt.Println(fp)
	return nil
}

// renderRun prints the merged tables (a fig9 result with its Δ tables
// when clean, the Figure 7 rows of the same data, is given), the
// backend's provenance summary line (the e2e jobs assert on computed=0
// and "fully cached" for warm runs), and the optional JSON dump.
func renderRun(merged *fairbench.GridOutput, rep *fairbench.RunReport, clean []fairbench.Row, out string) error {
	var err error
	if clean != nil {
		err = report.RenderRobustness(os.Stdout, merged.Robustness, report.DatasetLabel(merged.Spec), clean)
	} else {
		err = renderOutput(merged)
	}
	if err != nil {
		return err
	}
	switch {
	case rep.ServedFromCache:
		fmt.Fprintf(os.Stderr, "fairbench: run complete: grid fully cached — served from the result store, cells computed=0 cached=%d\n",
			rep.CellsCached)
	case rep.Backend == fairbench.BackendInproc:
		fmt.Fprintf(os.Stderr, "fairbench: run complete: cells computed=%d cached=%d\n",
			rep.CellsComputed, rep.CellsCached)
	case rep.Dispatch != nil:
		d := rep.Dispatch
		fmt.Fprintf(os.Stderr, "fairbench: dispatch complete: %d shards (%d reused, %d ran), cells computed=%d cached=%d\n",
			d.Shards, len(d.Reused), len(d.Ran), d.CellsComputed, d.CellsCached)
	case rep.Sched != nil:
		s := rep.Sched
		fmt.Fprintf(os.Stderr, "fairbench: sched complete: %d range(s) (%d reused, %d served from cache), %d host(s) excluded, cells computed=%d cached=%d\n",
			len(s.Ranges), len(s.Reused), len(s.Skipped), len(s.Excluded), s.CellsComputed, s.CellsCached)
		if len(s.Speculated) > 0 {
			fmt.Fprintf(os.Stderr, "fairbench: sched: %d speculative attempt(s) launched against stragglers\n", len(s.Speculated))
		}
		if len(s.Joined) > 0 || len(s.Departed) > 0 {
			fmt.Fprintf(os.Stderr, "fairbench: sched: pool changed mid-run: %d joined, %d departed\n", len(s.Joined), len(s.Departed))
		}
		if s.Degraded {
			fmt.Fprintf(os.Stderr, "fairbench: sched: DEGRADED — every host was lost; %d range(s) finished by the local in-process fallback\n", len(s.Fallback))
		}
	}
	if rep.CacheStats.Rejected > 0 {
		fmt.Fprintf(os.Stderr, "fairbench: WARNING: result store rejected %d corrupt or mismatched entrie(s); each was recomputed from scratch\n",
			rep.CacheStats.Rejected)
	}
	if rep.CacheDegraded {
		fmt.Fprintln(os.Stderr, "fairbench: remote store DEGRADED — repeated transport failures; the run finished on the local cache tier alone")
	}
	if out != "" {
		data, err := jsonIndent(merged)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fairbench: wrote merged output to %s\n", out)
	}
	return nil
}

// cmdWorker is the dispatch/sched-spawned subprocess body. With
// `-manifest - -shard I -out -` it speaks the remote-transport protocol instead:
// manifest over stdin, envelope over stdout, no filesystem shared with
// the scheduler.
func cmdWorker(manifest string, shard int, out string) error {
	if manifest == "-" || out == "-" {
		if manifest != "-" || out != "-" {
			return fmt.Errorf("worker streams manifest and envelope together: use -manifest - with -out -")
		}
		if shard < 0 {
			return fmt.Errorf("worker requires -shard")
		}
		return dispatch.WorkerIO(os.Stdin, shard, os.Stdout)
	}
	if manifest == "" || out == "" || shard < 0 {
		return fmt.Errorf("worker requires -manifest, -shard, and -out (it is normally spawned by dispatch or sched)")
	}
	return dispatch.Worker(manifest, shard, out)
}

// specFor builds the grid spec a sharded run of cmd describes, resolving
// the same defaults the serial command would use so a sharded run and a
// serial run with identical flags materialize identical grids.
func specFor(cmd, ds string, n, k, runs int, grid string, seed int64, bias biasSpec) (fairbench.GridSpec, error) {
	experiment, ok := shardableCommands[cmd]
	if cmd == "fig8" {
		switch grid {
		case "rows", "attrs":
			experiment, ok = "fig8"+grid, true
		default:
			return fairbench.GridSpec{}, fmt.Errorf("fig8 -shard needs -grid rows or -grid attrs, got %q", grid)
		}
	}
	if !ok {
		return fairbench.GridSpec{}, fmt.Errorf("command %q has no shardable job grid", cmd)
	}
	spec := fairbench.GridSpec{Experiment: experiment, N: n, Seed: seed}
	switch cmd {
	case "fig7", "fig15", "cv":
		if strings.ToLower(ds) == "all" || ds == "" {
			return fairbench.GridSpec{}, fmt.Errorf("%s -shard spans one grid: pick -dataset adult|compas|german", cmd)
		}
		spec.Dataset = ds
	}
	switch cmd {
	case "cv":
		spec.K = k
	case "fig22":
		spec.Runs = runs
	}
	return bias.apply(spec), nil
}

// cmdFigure runs a figure command. It resolves each grid the command
// spans (the three datasets of fig7/fig15/cv under -dataset all, both
// fig8 grids) to a spec and executes it on the in-process engine
// backend — exactly the path a dispatched, scheduled or served run of
// the same spec merges into. fig9 also runs the Figure 7 grid of the
// same data for its "Δ vs clean training" tables.
func cmdFigure(cmd, ds string, n, k, runs int, grid string, seed int64,
	bias biasSpec, cache, remoteStore, out string) error {
	datasets, grids := []string{ds}, []string{grid}
	switch cmd {
	case "fig7", "fig15", "cv":
		if ds == "" || strings.EqualFold(ds, "all") {
			datasets = []string{"adult", "compas", "german"}
		}
	case "fig8":
		grids = []string{"rows", "attrs"}
	}
	if out != "" && len(datasets)*len(grids) > 1 {
		return fmt.Errorf("-out holds one grid's merged output: pick a single -dataset")
	}
	ctx, stop := signalContext()
	defer stop()
	opts := fairbench.RunOptions{
		Backend: fairbench.BackendInproc, Parallelism: parallelism,
		CacheDir: cache, RemoteStore: remoteStore,
	}
	for _, d := range datasets {
		for _, g := range grids {
			spec, err := specFor(cmd, d, n, k, runs, g, seed, bias)
			if err != nil {
				return err
			}
			merged, rep, err := fairbench.Run(ctx, spec, opts)
			if err != nil {
				return err
			}
			var clean []fairbench.Row
			if cmd == "fig9" {
				fig7 := bias.apply(fairbench.GridSpec{Experiment: "fig7", Dataset: merged.Spec.Dataset, N: n, Seed: seed})
				cleanOut, _, err := fairbench.Run(ctx, fig7, opts)
				if err != nil {
					return err
				}
				clean = cleanOut.Rows
			}
			if err := renderRun(merged, rep, clean, out); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}

// parseShard parses "i/K", rejecting any trailing input (Sscanf would
// quietly accept "0/3x" or "1/3/9" and run the wrong shard).
func parseShard(s string) (i, k int, err error) {
	is, ks, found := strings.Cut(s, "/")
	if !found {
		return 0, 0, fmt.Errorf("bad -shard %q, want i/K (e.g. 0/3)", s)
	}
	if i, err = strconv.Atoi(is); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if k, err = strconv.Atoi(ks); err != nil {
		return 0, 0, fmt.Errorf("bad -shard %q: %w", s, err)
	}
	if k < 1 || i < 0 || i >= k {
		return 0, 0, fmt.Errorf("bad -shard %q: need 0 <= i < K", s)
	}
	return i, k, nil
}

// cmdShard runs shard i/K of the spec's grid against the -cache /
// -remote-store result store (none: every cell computes) and writes its
// envelope.
func cmdShard(spec fairbench.GridSpec, shardArg, out, cache, remoteStore string) error {
	i, k, err := parseShard(shardArg)
	if err != nil {
		return err
	}
	s, err := store.OpenBackend(cache, remoteStore)
	if err != nil {
		return err
	}
	ctx, stop := signalContext()
	defer stop()
	env, err := experiments.RunShardContext(ctx, spec, i, k, s, parallelism)
	if err != nil {
		return err
	}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	if out == "" {
		_, err = fmt.Println(string(data))
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fairbench: wrote shard %d/%d (%d of %d jobs) to %s\n",
		i, k, len(env.Indices), env.Total, out)
	return nil
}

func cmdMerge(files []string, out string) error {
	if len(files) == 0 {
		return fmt.Errorf("merge needs at least one envelope file")
	}
	envs := make([]*fairbench.ShardEnvelope, len(files))
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if envs[i], err = fairbench.DecodeShardEnvelope(data); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	// The named merge attributes every validation failure to its file and
	// lists the shard indices still missing from an incomplete set.
	merged, err := fairbench.MergeShardsNamed(envs, files)
	if err != nil {
		return err
	}
	if err := renderOutput(merged); err != nil {
		return err
	}
	if out != "" {
		data, err := jsonIndent(merged)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "fairbench: wrote merged output to %s\n", out)
	}
	return nil
}

// renderOutput prints a merged grid result with the same tables the
// serial command would print; the renderer itself lives in
// internal/report so the serve daemon shares it.
func renderOutput(out *fairbench.GridOutput) error {
	return report.RenderOutput(os.Stdout, out)
}

func sources(name string, n int, seed int64) ([]*fairbench.Source, error) {
	switch strings.ToLower(name) {
	case "adult":
		return []*fairbench.Source{fairbench.Adult(n, seed)}, nil
	case "compas":
		return []*fairbench.Source{fairbench.COMPAS(n, seed)}, nil
	case "german":
		return []*fairbench.Source{fairbench.German(n, seed)}, nil
	case "all", "":
		return []*fairbench.Source{
			fairbench.Adult(n, seed), fairbench.COMPAS(n, seed), fairbench.German(n, seed),
		}, nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

func cmdList() error {
	byStage := registry.ByStage()
	for _, stage := range []fair.Stage{fair.StagePre, fair.StageIn, fair.StagePost} {
		fmt.Printf("%s-processing:\n", stage)
		for _, n := range byStage[stage] {
			a, err := registry.New(n, registry.Config{})
			if err != nil {
				return err
			}
			var targets []string
			for _, t := range a.Targets() {
				targets = append(targets, string(t))
			}
			desc := strings.Join(targets, ", ")
			if desc == "" {
				desc = "(notion outside the five evaluated metrics)"
			}
			fmt.Printf("  %-18s optimizes %s\n", n, desc)
		}
	}
	return nil
}

func cmdEval(ds, approach string, n int, seed int64) error {
	if approach == "" {
		return fmt.Errorf("eval requires -approach (see 'fairbench list')")
	}
	srcs, err := sources(ds, n, seed)
	if err != nil {
		return err
	}
	for _, src := range srcs {
		train, test := fairbench.Split(src.Data, 0.7, seed)
		a, err := fairbench.NewApproach(approach, src.Graph, seed)
		if err != nil {
			return err
		}
		row, err := fairbench.Evaluate(a, train, test, src.Graph)
		if err != nil {
			return err
		}
		if err := report.RowsTable(src.Data.Name, []fairbench.Row{row}).Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// jsonIndent renders the merged output for -out.
func jsonIndent(v any) ([]byte, error) {
	return json.MarshalIndent(v, "", "  ")
}
