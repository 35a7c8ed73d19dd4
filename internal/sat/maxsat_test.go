package sat

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestExactSimple(t *testing.T) {
	// Hard: (x1 or x2). Soft: ¬x1 (w=2), ¬x2 (w=1). Optimum: x2 true,
	// violating the weight-1 clause. x3..x8 are free, so the engines'
	// optima differ in them and the comparison shows which one ran.
	f := &Formula{}
	f.AddHard(1, 2)
	f.AddSoft(2, -1)
	f.AddSoft(1, -2)
	for v := Lit(3); v <= 8; v++ {
		f.AddHard(v, -v)
	}
	res := Solve(f, 0)
	if !reflect.DeepEqual(res, solveExact(f)) {
		t.Fatal("small formula must use the exact engine")
	}
	if res.Cost != 1 {
		t.Fatalf("cost: %v", res.Cost)
	}
	if res.Assignment[1] || !res.Assignment[2] {
		t.Fatalf("assignment: %v", res.Assignment[1:])
	}
}

func TestExactAllSoftSatisfiable(t *testing.T) {
	f := &Formula{}
	f.AddSoft(5, 1)
	f.AddSoft(3, 2)
	res := Solve(f, 0)
	if res.Cost != 0 {
		t.Fatalf("want zero cost, got %v", res.Cost)
	}
}

func TestExactHardUnsat(t *testing.T) {
	f := &Formula{}
	f.AddHard(1)
	f.AddHard(-1)
	res := Solve(f, 0)
	if res.Cost >= 0 {
		t.Fatalf("unsat hard clauses must report cost -1, got %v", res.Cost)
	}
}

func TestExactWeighedTradeoff(t *testing.T) {
	// x1 must hold (hard). Soft prefers ¬x1 with huge weight — must be
	// violated anyway.
	f := &Formula{}
	f.AddHard(1)
	f.AddSoft(100, -1)
	res := Solve(f, 0)
	if res.Cost != 100 || !res.Assignment[1] {
		t.Fatalf("result: cost=%v assign=%v", res.Cost, res.Assignment)
	}
}

func TestCostFunction(t *testing.T) {
	f := &Formula{}
	f.AddHard(1, 2)
	f.AddSoft(3, -1)
	assign := []bool{false, true, false} // x1 true, x2 false
	if c := f.Cost(assign); c != 3 {
		t.Fatalf("cost: %v", c)
	}
	assign = []bool{false, false, false}
	if c := f.Cost(assign); c != -1 {
		t.Fatalf("hard violation must yield -1, got %v", c)
	}
}

func TestLocalSearchFindsFeasible(t *testing.T) {
	// 30 variables force the local-search engine; chain of implications
	// with a satisfiable core.
	f := &Formula{}
	for v := 1; v <= 30; v++ {
		f.AddHard(Lit(v), Lit(-v)) // tautologies register variables
	}
	f.AddHard(1)
	f.AddHard(-1, 2)
	f.AddSoft(1, -2)
	res := Solve(f, 42)
	if !reflect.DeepEqual(res, solveLocal(f, 42)) {
		t.Fatal("30-var formula should use local search")
	}
	if res.Cost < 0 {
		t.Fatal("local search failed to satisfy trivially satisfiable hard clauses")
	}
	if !res.Assignment[1] || !res.Assignment[2] {
		t.Fatalf("implied assignment violated: %v %v", res.Assignment[1], res.Assignment[2])
	}
	if res.Cost != 1 {
		t.Fatalf("cost: %v", res.Cost)
	}
}

func TestExactMatchesBruteForce(t *testing.T) {
	// Property: on random small formulas, the exact engine's cost equals
	// the brute-force minimum.
	f := func(seed int64) bool {
		g := newDetRand(seed)
		formula := &Formula{}
		nv := 2 + int(g()%4) // 2..5 vars
		nc := 1 + int(g()%5)
		for c := 0; c < nc; c++ {
			width := 1 + int(g()%2)
			var lits []Lit
			for k := 0; k < width; k++ {
				v := 1 + int(g()%uint64(nv))
				l := Lit(v)
				if g()%2 == 0 {
					l = -l
				}
				lits = append(lits, l)
			}
			formula.AddSoft(float64(1+g()%3), lits...)
		}
		for v := nv; v >= 1; v-- {
			formula.track([]Lit{Lit(v)})
		}
		got := Solve(formula, 0).Cost
		want := bruteForce(formula)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func bruteForce(f *Formula) float64 {
	n := f.NumVars
	best := -1.0
	assign := make([]bool, n+1)
	for mask := 0; mask < 1<<n; mask++ {
		for v := 1; v <= n; v++ {
			assign[v] = mask&(1<<(v-1)) != 0
		}
		c := f.Cost(assign)
		if c >= 0 && (best < 0 || c < best) {
			best = c
		}
	}
	return best
}

// newDetRand is a tiny deterministic generator for the property test.
func newDetRand(seed int64) func() uint64 {
	x := uint64(seed)*2654435761 + 1
	return func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
}
