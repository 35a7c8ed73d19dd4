package sched

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"fairbench/internal/rng"
	"fairbench/internal/store"
)

// Fault is what FaultTransport does to one attempt. The zero value
// injects nothing (the attempt runs normally on the inner transport).
type Fault struct {
	// Delay holds the attempt open — heartbeating, so the host reads as
	// alive — before delegating to the inner transport: the straggler
	// primitive the speculation tests are built on.
	Delay time.Duration
	// Mute suppresses every heartbeat of the attempt, so the scheduler's
	// deadline sees a silent transport even though work may finish.
	Mute bool
	// Hang blocks until the scheduler cancels the attempt (heartbeating
	// unless also Mute), then returns the cancellation.
	Hang bool
	// Kill fails the attempt immediately, the way a SIGKILLed worker
	// does.
	Kill bool
	// Corrupt writes garbage to the attempt's OutPath and reports
	// success, exercising the dispatch.ValidatePart acceptance gate.
	Corrupt bool
}

// FaultScript decides the fault injected into one attempt, keyed by the
// host, the plan position, and n — the ordinal of this (host, range)
// attempt, 0 for the first. Scripts must be pure functions of their
// arguments so a chaos run replays identically; derive randomness from
// rng.Derive (see RandomFaults), never from global random state.
type FaultScript func(host Host, rangeIdx, n int) Fault

// FaultTransport wraps any real Transport with a deterministic fault
// script. It is this package's chaos-testing seam, usable only from its
// tests: register it under a transport name (Options.Transports) around
// the transport the pool really uses, and script delays, hangs, kills,
// and corrupt parts per attempt. Everything the script leaves alone passes through to
// Inner untouched, so a faulted run exercises the scheduler's recovery
// paths while the surviving attempts compute real envelopes.
type FaultTransport struct {
	// Inner executes the attempt once its scripted faults (if any) have
	// played out. Required unless every attempt is scripted to die.
	Inner Transport
	// Script is consulted once per attempt; nil injects nothing.
	Script FaultScript

	mu    sync.Mutex
	calls map[string]int
}

// Run implements Transport.
func (t *FaultTransport) Run(ctx context.Context, host Host, asn Assignment, beat func()) error {
	t.mu.Lock()
	if t.calls == nil {
		t.calls = map[string]int{}
	}
	key := host.Name + "#" + strconv.Itoa(asn.Range)
	n := t.calls[key]
	t.calls[key] = n + 1
	t.mu.Unlock()

	var f Fault
	if t.Script != nil {
		f = t.Script(host, asn.Range, n)
	}
	if f.Mute {
		beat = func() {}
	}
	if f.Hang {
		for {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(heartbeatEvery):
				beat()
			}
		}
	}
	if f.Delay > 0 {
		// Sleep in heartbeat-sized slices so a delayed (but live)
		// attempt reads as a straggler, not a dead host.
		deadline := time.Now().Add(f.Delay)
		tick := time.NewTicker(heartbeatEvery)
		for time.Now().Before(deadline) {
			select {
			case <-ctx.Done():
				tick.Stop()
				return ctx.Err()
			case <-tick.C:
				beat()
			}
		}
		tick.Stop()
	}
	if f.Kill {
		return fmt.Errorf("fault: worker killed by script (host %s, range %d, attempt %d)", host.Name, asn.Range, n)
	}
	if f.Corrupt {
		return store.WriteFileAtomic(asn.OutPath, []byte(`{"fault":"corrupt part"}`))
	}
	if t.Inner == nil {
		return fmt.Errorf("fault: no inner transport for host %s, range %d", host.Name, asn.Range)
	}
	return t.Inner.Run(ctx, host, asn, beat)
}

// FaultRates parameterizes RandomFaults: each field is the probability
// in [0,1] that an attempt suffers that fault. At most one fault fires
// per attempt (drawn in field order), keeping the rates interpretable.
type FaultRates struct {
	Kill, Hang, Mute, Corrupt float64
	// DelayP is the probability of a scripted straggler; Delay is how
	// long it stalls.
	DelayP float64
	Delay  time.Duration
}

// RandomFaults builds a reproducible chaos script: each (host, range,
// attempt) triple draws its fate from rng.Derive(seed, id), a pure
// function of its inputs, so the same seed replays the exact same fault
// schedule on every run — chaos failures reproduce instead of flaking.
func RandomFaults(seed int64, rates FaultRates) FaultScript {
	return func(host Host, rangeIdx, n int) Fault {
		id := int64(0)
		for _, c := range host.Name {
			id = id*131 + int64(c)
		}
		id = id<<20 ^ int64(rangeIdx)<<8 ^ int64(n)
		g := rng.Derive(seed, id)
		var f Fault
		switch {
		case g.Float64() < rates.Kill:
			f.Kill = true
		case g.Float64() < rates.Hang:
			f.Hang = true
		case g.Float64() < rates.Mute:
			f.Mute = true
		case g.Float64() < rates.Corrupt:
			f.Corrupt = true
		case g.Float64() < rates.DelayP:
			f.Delay = rates.Delay
		}
		return f
	}
}
