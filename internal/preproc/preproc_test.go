package preproc

import (
	"math"
	"sort"
	"testing"

	"fairbench/internal/dataset"
	"fairbench/internal/stats"
	"fairbench/internal/synth"
)

// independenceGap measures |P_obs(s,y) - P(s)P(y)| summed over cells — the
// quantity Kam-Cal's reweighing drives to zero.
func independenceGap(d *dataset.Dataset) float64 {
	n := float64(d.Len())
	var cnt [2][2]float64
	var sTot, yTot [2]float64
	for i := range d.Y {
		cnt[d.S[i]][d.Y[i]]++
		sTot[d.S[i]]++
		yTot[d.Y[i]]++
	}
	var gap float64
	for s := 0; s < 2; s++ {
		for y := 0; y < 2; y++ {
			gap += math.Abs(cnt[s][y]/n - (sTot[s]/n)*(yTot[y]/n))
		}
	}
	return gap
}

func TestKamCalIndependence(t *testing.T) {
	src := synth.COMPAS(4000, 1)
	before := independenceGap(src.Data)
	k := &KamCal{Seed: 2}
	out, err := k.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	after := independenceGap(out)
	if after > before/3 {
		t.Fatalf("reweighed resampling must shrink the S-Y dependence: %v -> %v", before, after)
	}
	if out.Len() != src.Data.Len() {
		t.Fatal("resampling must preserve |D|")
	}
}

func TestKamCalWeights(t *testing.T) {
	src := synth.COMPAS(3000, 2)
	k := &KamCal{}
	w := k.Weights(src.Data)
	// Weighted joint distribution must be (almost exactly) independent.
	n := 0.0
	var cnt [2][2]float64
	var sTot, yTot [2]float64
	for i := range w {
		s, y := src.Data.S[i], src.Data.Y[i]
		cnt[s][y] += w[i]
		sTot[s] += w[i]
		yTot[y] += w[i]
		n += w[i]
	}
	for s := 0; s < 2; s++ {
		for y := 0; y < 2; y++ {
			gap := math.Abs(cnt[s][y]/n - (sTot[s]/n)*(yTot[y]/n))
			if gap > 1e-6 {
				t.Fatalf("weighted cell (%d,%d) gap %v", s, y, gap)
			}
		}
	}
}

func TestFeldMarginalEquality(t *testing.T) {
	src := synth.Adult(4000, 3)
	f := &Feld{}
	out, err := f.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	// After full repair, each numeric attribute's group quantiles must
	// coincide (compare a few quantiles of Hours_per_week, column 7).
	var c0, c1 []float64
	for i := range out.X {
		if out.S[i] == 1 {
			c1 = append(c1, out.X[i][7])
		} else {
			c0 = append(c0, out.X[i][7])
		}
	}
	sort.Float64s(c0)
	sort.Float64s(c1)
	for _, q := range []float64{0.25, 0.5, 0.75} {
		d := math.Abs(stats.QuantileSorted(c0, q) - stats.QuantileSorted(c1, q))
		if d > 1.0 { // hours scale ~[1,99]
			t.Fatalf("repaired quantile %v differs by %v", q, d)
		}
	}
}

func TestFeldTransformRowConsistency(t *testing.T) {
	src := synth.Adult(2000, 4)
	f := &Feld{}
	out, err := f.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	// TransformRow on a training tuple must reproduce the repaired value.
	for _, i := range []int{0, 17, 399} {
		got := f.TransformRow(src.Data.X[i], src.Data.S[i])
		for j := range got {
			if math.Abs(got[j]-out.X[i][j]) > 1e-9 {
				t.Fatalf("tuple %d attr %d: transform %v vs repair %v", i, j, got[j], out.X[i][j])
			}
		}
	}
	// Unfitted transform is the identity.
	var fresh Feld
	x := []float64{1, 2}
	got := fresh.TransformRow(x, 0)
	if got[0] != 1 || got[1] != 2 {
		t.Fatal("unfitted TransformRow must be identity")
	}
}

func TestCalmonReducesGap(t *testing.T) {
	src := synth.COMPAS(3000, 5)
	u0, p0 := src.Data.BaseRates()
	c := &Calmon{Seed: 6}
	out, err := c.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	u1, p1 := out.BaseRates()
	if math.Abs(p1-u1) > math.Abs(p0-u0)/2 {
		t.Fatalf("Calmon must shrink the label-rate gap: %v -> %v", p0-u0, p1-u1)
	}
}

func TestZhaWuStratumRepair(t *testing.T) {
	src := synth.COMPAS(4000, 7)
	z := &ZhaWu{Graph: src.Graph, PathSpecific: true}
	out, err := z.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	u, p := out.BaseRates()
	if math.Abs(p-u) > 0.03 {
		t.Fatalf("PSF repair must equalize overall label rates: gap %v", p-u)
	}
	// DCE leaves the (indirect) marginal gap mostly in place.
	z2 := &ZhaWu{Graph: src.Graph, PathSpecific: false}
	out2, err := z2.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	u2, p2 := out2.BaseRates()
	if math.Abs(p2-u2) < 0.01 {
		t.Fatal("DCE must not remove the indirect effect entirely")
	}
}

func TestZhaWuNilGraph(t *testing.T) {
	src := synth.COMPAS(500, 8)
	z := &ZhaWu{PathSpecific: true}
	out, err := z.Repair(src.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Without a graph there are no mediators: everything is one stratum,
	// still repaired for the marginal gap by the psf pass.
	u, p := out.BaseRates()
	if math.Abs(p-u) > 0.05 {
		t.Fatalf("marginal repair failed: gap %v", p-u)
	}
}

// stratumDependence reports the mean within-stratum group label-rate gap
// over (Age, Prior) strata — the conditional dependence Salimi removes.
func stratumDependence(d *dataset.Dataset) float64 {
	disc := dataset.FitDiscretizer(d, 3)
	type cell struct{ n, p [2]float64 }
	m := map[int]*cell{}
	for i, row := range d.X {
		code, _ := disc.Code(row, []int{0, 2})
		c := m[code]
		if c == nil {
			c = &cell{}
			m[code] = c
		}
		c.n[d.S[i]]++
		c.p[d.S[i]] += float64(d.Y[i])
	}
	var sum, cnt float64
	for _, c := range m {
		if c.n[0] < 5 || c.n[1] < 5 {
			continue
		}
		sum += math.Abs(c.p[1]/c.n[1] - c.p[0]/c.n[0])
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	return sum / cnt
}

func TestSalimiRemovesConditionalDependence(t *testing.T) {
	src := synth.COMPAS(4000, 9)
	before := stratumDependence(src.Data)
	for _, matFac := range []bool{false, true} {
		sal := &Salimi{Inadmissible: DefaultInadmissible, UseMatFac: matFac, Seed: 10}
		out, err := sal.Repair(src.Data)
		if err != nil {
			t.Fatal(err)
		}
		after := stratumDependence(out)
		if after > before/2 {
			t.Fatalf("matFac=%v: conditional dependence %v -> %v", matFac, before, after)
		}
	}
}

func TestRepairOpsInvariants(t *testing.T) {
	// After applying the chosen ops, the cell rate must move to rho.
	cases := []struct {
		n0, n1 int
		rho    float64
	}{
		{10, 30, 0.5}, {30, 10, 0.5}, {20, 20, 0.25}, {5, 0, 0.4}, {0, 5, 0.4},
	}
	for _, c := range cases {
		dp, dn, ip, in, cost := repairOps(c.n0, c.n1, c.rho)
		if dp < 0 || dn < 0 || ip < 0 || in < 0 || cost < 0 {
			t.Fatalf("negative op counts for %+v", c)
		}
		n0 := c.n0 - dn + in
		n1 := c.n1 - dp + ip
		if n0+n1 == 0 {
			continue
		}
		got := float64(n1) / float64(n0+n1)
		if math.Abs(got-c.rho) > 0.15 {
			t.Fatalf("case %+v: rate after ops %v, want ~%v", c, got, c.rho)
		}
	}
}
