package shard

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestPlanContiguousBalanced(t *testing.T) {
	cases := []struct {
		n, k int
		want []Range
	}{
		{10, 3, []Range{{0, 4}, {4, 7}, {7, 10}}},
		{9, 3, []Range{{0, 3}, {3, 6}, {6, 9}}},
		{2, 3, []Range{{0, 1}, {1, 2}, {2, 2}}},
		{0, 2, []Range{{0, 0}, {0, 0}}},
		{5, 1, []Range{{0, 5}}},
	}
	for _, c := range cases {
		got, err := Plan(c.n, c.k)
		if err != nil {
			t.Fatalf("Plan(%d,%d): %v", c.n, c.k, err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("Plan(%d,%d): %v", c.n, c.k, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Plan(%d,%d)[%d] = %+v, want %+v", c.n, c.k, i, got[i], c.want[i])
			}
		}
	}
}

func TestPlanProperties(t *testing.T) {
	for n := 0; n <= 50; n++ {
		for k := 1; k <= 8; k++ {
			ranges, err := Plan(n, k)
			if err != nil {
				t.Fatal(err)
			}
			prev, covered := 0, 0
			for _, r := range ranges {
				if r.Start != prev || r.End < r.Start {
					t.Fatalf("Plan(%d,%d): not contiguous: %+v", n, k, ranges)
				}
				if r.Len() > n/k+1 || r.Len() < n/k {
					t.Fatalf("Plan(%d,%d): unbalanced range %+v", n, k, r)
				}
				prev = r.End
				covered += r.Len()
			}
			if prev != n || covered != n {
				t.Fatalf("Plan(%d,%d): covers %d of %d", n, k, covered, n)
			}
		}
	}
}

func TestPlanAligned(t *testing.T) {
	// 5 slices × 19 timing columns: boundaries must fall on multiples of
	// 19 so no slice's columns straddle two shards.
	ranges, err := PlanAligned(95, 2, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 || ranges[0] != (Range{0, 57}) || ranges[1] != (Range{57, 95}) {
		t.Fatalf("aligned plan: %+v", ranges)
	}
	for n := 0; n <= 6; n++ {
		for k := 1; k <= 4; k++ {
			ranges, err := PlanAligned(n*19, k, 19)
			if err != nil {
				t.Fatal(err)
			}
			covered := 0
			for _, r := range ranges {
				if r.Start%19 != 0 || r.End%19 != 0 {
					t.Fatalf("PlanAligned(%d,%d,19): unaligned range %+v", n*19, k, r)
				}
				covered += r.Len()
			}
			if covered != n*19 {
				t.Fatalf("PlanAligned(%d,%d,19): covers %d", n*19, k, covered)
			}
		}
	}
	if _, err := PlanAligned(20, 2, 19); err == nil {
		t.Fatal("non-multiple job count accepted")
	}
	// align <= 1 degenerates to the unaligned planner.
	ranges, err = PlanAligned(10, 3, 1)
	if err != nil || ranges[0] != (Range{0, 4}) {
		t.Fatalf("align=1: %+v, %v", ranges, err)
	}
}

func TestPlanRejectsBadInput(t *testing.T) {
	if _, err := Plan(-1, 2); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := Plan(5, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	a := Fingerprint([]byte(`{"experiment":"fig7"}`), 19)
	if a != Fingerprint([]byte(`{"experiment":"fig7"}`), 19) {
		t.Fatal("fingerprint not deterministic")
	}
	if a == Fingerprint([]byte(`{"experiment":"fig9"}`), 19) {
		t.Fatal("fingerprint ignores spec")
	}
	if a == Fingerprint([]byte(`{"experiment":"fig7"}`), 20) {
		t.Fatal("fingerprint ignores total")
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d", len(a))
	}
}

// envelopes builds a valid k-way shard set over n integer rows.
func envelopes(t *testing.T, n, k int) []*Envelope {
	t.Helper()
	spec := json.RawMessage(`{"experiment":"test"}`)
	fp := Fingerprint(spec, n)
	ranges, err := Plan(n, k)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Envelope, k)
	for s, r := range ranges {
		e := &Envelope{
			Version: Version, Fingerprint: fp, Spec: spec, Arch: "amd64", Seed: 42,
			Shard: s, Shards: k, Total: n,
		}
		for i := r.Start; i < r.End; i++ {
			e.Indices = append(e.Indices, i)
			e.Rows = append(e.Rows, json.RawMessage(fmt.Sprintf("%d", i*i)))
		}
		out[s] = e
	}
	return out
}

func TestMergeReassemblesInJobOrder(t *testing.T) {
	envs := envelopes(t, 11, 3)
	// Shuffle delivery order; merge must still be index-ordered.
	envs[0], envs[2] = envs[2], envs[0]
	m, err := Merge(envs)
	if err != nil {
		t.Fatal(err)
	}
	if m.Total != 11 || len(m.Rows) != 11 {
		t.Fatalf("merged: %+v", m)
	}
	for i, raw := range m.Rows {
		if string(raw) != fmt.Sprintf("%d", i*i) {
			t.Fatalf("row %d = %s", i, raw)
		}
	}
}

func TestMergeRejectsMismatchedFingerprint(t *testing.T) {
	envs := envelopes(t, 9, 3)
	envs[1].Fingerprint = Fingerprint([]byte("other grid"), 9)
	if _, err := Merge(envs); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("want fingerprint mismatch, got %v", err)
	}
}

func TestMergeRejectsIncompleteAndDuplicate(t *testing.T) {
	envs := envelopes(t, 9, 3)
	if _, err := Merge(envs[:2]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("want missing-job error, got %v", err)
	}
	dup := envelopes(t, 9, 3)
	dup[1].Indices[0] = 0 // collides with shard 0's first job
	if _, err := Merge(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("want duplicate-job error, got %v", err)
	}
}

func TestMergeRejectsDisagreement(t *testing.T) {
	seed := envelopes(t, 6, 2)
	seed[1].Seed = 7
	if _, err := Merge(seed); err == nil || !strings.Contains(err.Error(), "seed mismatch") {
		t.Fatalf("want seed mismatch, got %v", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	// Shards computed on different architectures may differ in low float
	// bits (FMA contraction), so mixed-arch sets must be rejected.
	arch := envelopes(t, 6, 2)
	arch[1].Arch = "arm64"
	if _, err := Merge(arch); err == nil || !strings.Contains(err.Error(), "architecture mismatch") {
		t.Fatalf("want architecture mismatch, got %v", err)
	}
	// And an envelope that records no architecture at all is invalid.
	bare := envelopes(t, 6, 2)
	bare[0].Arch = ""
	if _, err := Merge(bare); err == nil {
		t.Fatal("arch-less envelope accepted")
	}
}

// TestMergeMixedDecodedAndInMemory merges a set in which one envelope
// went through Encode and Decode, whose indenting encoder rewrites the
// spec's whitespace, and the others did not: the specs are the same grid,
// so the set merges. A spec that differs in more than whitespace still
// fails.
func TestMergeMixedDecodedAndInMemory(t *testing.T) {
	envs := envelopes(t, 9, 3)
	data, err := envs[1].Encode()
	if err != nil {
		t.Fatal(err)
	}
	if envs[1], err = Decode(data); err != nil {
		t.Fatal(err)
	}
	if string(envs[1].Spec) == string(envs[0].Spec) {
		t.Fatalf("decoded spec kept its bytes %s; the test needs re-indented ones", envs[1].Spec)
	}
	m, err := Merge(envs)
	if err != nil {
		t.Fatalf("mixed set: %v", err)
	}
	if string(m.Spec) != string(envs[0].Spec) || len(m.Rows) != 9 {
		t.Fatalf("merged: %+v", m)
	}

	other := envelopes(t, 9, 3)
	other[1].Spec = json.RawMessage(`{"experiment": "other"}`)
	other[1].Fingerprint = Fingerprint([]byte(`{"experiment":"other"}`), 9)
	if _, err := Merge(other); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("want fingerprint mismatch for a different spec, got %v", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	env := envelopes(t, 5, 2)[0]
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint != env.Fingerprint || back.Shard != env.Shard ||
		len(back.Rows) != len(env.Rows) {
		t.Fatalf("round trip: %+v", back)
	}
	if _, err := Decode([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	env := envelopes(t, 5, 2)[0]
	env.Indices[0] = 99
	if err := env.Validate(); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	env = envelopes(t, 5, 2)[0]
	env.Rows = env.Rows[:1]
	if err := env.Validate(); err == nil {
		t.Fatal("indices/rows length mismatch accepted")
	}
}

// TestMergeNamedAttributesErrors pins the merge-diagnostics contract:
// with file names supplied, every validation error names the offending
// file, and an incomplete set lists the shard indices still missing.
func TestMergeNamedAttributesErrors(t *testing.T) {
	names := []string{"part0.json", "part1.json", "part2.json"}
	envs := envelopes(t, 9, 3)
	envs[2].Fingerprint = Fingerprint([]byte("other grid"), 9)
	if _, err := MergeNamed(envs, names); err == nil ||
		!strings.Contains(err.Error(), "part2.json") {
		t.Fatalf("fingerprint error does not name the file: %v", err)
	}

	incomplete := envelopes(t, 9, 3)
	_, err := MergeNamed([]*Envelope{incomplete[0], incomplete[2]}, []string{"part0.json", "part2.json"})
	if err == nil || !strings.Contains(err.Error(), "missing shard(s) 1 of 3") {
		t.Fatalf("incomplete set does not list missing shard indices: %v", err)
	}

	dup := envelopes(t, 9, 3)
	dup[1].Indices[0] = 0
	if _, err := MergeNamed(dup, names); err == nil ||
		!strings.Contains(err.Error(), "part0.json") || !strings.Contains(err.Error(), "part1.json") {
		t.Fatalf("duplicate-job error does not name both files: %v", err)
	}

	invalid := envelopes(t, 9, 3)
	invalid[1].Arch = ""
	if _, err := MergeNamed(invalid, names); err == nil ||
		!strings.Contains(err.Error(), "part1.json") {
		t.Fatalf("validation error does not name the file: %v", err)
	}
}

// TestCachedProvenance pins the Cached field: it must be a subset of the
// envelope's indices.
func TestCachedProvenance(t *testing.T) {
	envs := envelopes(t, 9, 3)
	envs[1].Cached = []int{envs[1].Indices[0]}
	envs[2].Cached = append([]int(nil), envs[2].Indices...)
	if _, err := Merge(envs); err != nil {
		t.Fatal(err)
	}
	bad := envelopes(t, 9, 3)
	bad[0].Cached = []int{8} // shard 0 never delivered job 8
	if err := bad[0].Validate(); err == nil {
		t.Fatal("cached index outside the envelope's indices accepted")
	}
}
