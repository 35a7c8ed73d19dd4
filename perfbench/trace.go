package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// layers are the repository modules the benchmark calls into, plus
// "bench" for the benchmark's own code (verification, HTTP client glue).
// Every span belongs to one of them; self time is reported per layer.
var layers = []string{
	"bench", "synth", "experiments", "classifier", "metrics", "store",
	"shard", "report", "engine", "dispatch", "serve",
}

// span is one timed call across a layer boundary. Parent is the ID of
// the span that caused it (0 for a root); Op is the timed operation it
// belongs to, or -1 for set-up, verification and layer probes.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Remote bool    `json:"remote,omitempty"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A disabled tracer records nothing and costs one branch per call, which
// is what lets a traced run alternate traced and untraced operations to
// measure its own overhead.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	on     bool
	op     int
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), op: -1} }

// enable switches recording on or off and names the operation that
// following spans belong to.
func (t *tracer) enable(on bool, op int) {
	t.mu.Lock()
	t.on, t.op = on, op
	t.mu.Unlock()
}

func (t *tracer) enabled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.on
}

// begin opens a span under parent and returns its ID, or 0 when
// recording is off.
func (t *tracer) begin(parent int, layer, name string) int {
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Op: t.op,
		Layer: layer, Name: name, Start: now, End: -1})
	return t.nextID
}

// end closes span id; a zero id (recording was off) is ignored.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span measured elsewhere, such as in a worker
// subprocess, given its wall-clock bounds.
func (t *tracer) add(parent int, layer, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.nextID++
	t.spans = append(t.spans, span{ID: t.nextID, Parent: parent, Op: t.op,
		Layer: layer, Name: name, Remote: true,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()})
}

// selfTimes returns, per layer, the summed self time of every closed
// span that belongs to a timed operation: a span's duration minus the
// part of its interval its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		if s.Op < 0 || s.End < 0 {
			continue
		}
		self[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's; concurrent children are counted once.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// count returns how many spans were recorded for timed operations.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Op >= 0 {
			n++
		}
	}
	return n
}

// write saves every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
