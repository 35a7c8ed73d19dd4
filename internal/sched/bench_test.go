package sched

import (
	"context"
	"os"
	"testing"
	"time"

	"fairbench/internal/experiments"
	"fairbench/internal/store"
)

// BenchmarkSchedPlanCacheAware measures the coordinator's plan-time cost
// over a half-cached grid: materializing the grid from its spec plus one
// verified store probe per cell. This is the fixed price every scheduled
// run pays before the first assignment; scripts/bench.sh records it to
// BENCH_sched.json.
func BenchmarkSchedPlanCacheAware(b *testing.B) {
	spec := experiments.Spec{Experiment: "fig7", Dataset: "german", N: 300, Seed: 1}
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	// Populate the first half of the grid so the plan sees a realistic
	// mid-run cache: a cached prefix to skip and an uncached tail to
	// balance.
	if _, err := experiments.RunShardContext(context.Background(), spec, 0, 2, st, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := experiments.PlanShardsCacheAware(spec, 4, st)
		if err != nil {
			b.Fatal(err)
		}
		if plan.Uncached[0] != 0 || plan.TotalUncached() == 0 {
			b.Fatalf("unexpected plan %+v", plan)
		}
	}
}

// stragglerRun is the shared body of the speculation benchmark pair:
// one host stalls every attempt by a scripted delay while the other
// serves instantly. With speculation off the run waits out the stall;
// with it on, the straggling range is duplicated onto the idle host and
// the run finishes as soon as the duplicate validates. bench.sh records
// both into BENCH_sched.json; their ratio is the speculation win.
func stragglerRun(b *testing.B, speculate bool) {
	spec := smallSpec()
	inner := newInstantInner(b, spec, 3)
	const stall = 300 * time.Millisecond
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "run")
		if err != nil {
			b.Fatal(err)
		}
		// A fresh FaultTransport per iteration resets the per-attempt
		// call counters, so every run sees the same fault schedule.
		transport := &FaultTransport{Inner: inner, Script: func(h Host, _, _ int) Fault {
			if h.Name == "slow" {
				return Fault{Delay: stall}
			}
			return Fault{}
		}}
		b.StartTimer()
		_, rep, err := Run(spec, Options{
			Dir:              dir,
			Shards:           3,
			Hosts:            []Host{{Name: "slow"}, {Name: "fast", Slots: 2}},
			Transports:       map[string]Transport{"local": transport},
			Speculate:        speculate,
			SpeculateFactor:  2,
			SpeculateFloor:   100 * time.Millisecond,
			HeartbeatTimeout: 400 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failed) != 0 {
			b.Fatalf("failed ranges %v", rep.Failed)
		}
		if speculate && len(rep.Speculated) == 0 {
			b.Fatal("speculation enabled but never triggered")
		}
	}
}

// BenchmarkSchedStraggler: the scripted-straggler run with speculation
// OFF — the baseline that pays the full stall.
func BenchmarkSchedStraggler(b *testing.B) { stragglerRun(b, false) }

// BenchmarkSchedSpeculation: the same run with speculation ON — the
// straggling range is raced on the idle host.
func BenchmarkSchedSpeculation(b *testing.B) { stragglerRun(b, true) }

// BenchmarkSchedLocal is a whole scheduled run — plan, spawn workers on
// two local hosts, validate parts, merge — over a small cold grid, the
// end-to-end overhead of going multi-host on one machine.
func BenchmarkSchedLocal(b *testing.B) {
	spec := smallSpec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp(b.TempDir(), "run")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, rep, err := Run(spec, Options{
			Dir:        dir,
			Shards:     2,
			Hosts:      []Host{{Name: "a"}, {Name: "b"}},
			Transports: map[string]Transport{"local": workerTransport()},
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Failed) != 0 {
			b.Fatalf("failed ranges %v", rep.Failed)
		}
	}
}
