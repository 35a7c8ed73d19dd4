// Package synth generates the three benchmark datasets — Adult, COMPAS, and
// German — as samples from structural causal models (SCMs) built on the
// causal graphs the paper's Appendix C attributes to each dataset
// (Figure 14). The original CSV files are unavailable in this offline
// environment; the SCMs are calibrated so that every statistic the paper
// reports holds:
//
//   - schema: same attribute count, names, and sensitive attribute (Fig 6);
//   - size: |D| = 45,222 (Adult), 7,214 (COMPAS), 1,000 (German);
//   - group base rates: P(Y=1|S): Adult 11% female vs 32% male; COMPAS 49%
//     African-American vs 61% others (51% vs 39% two-year recidivism, with
//     Y=1 the favorable "does not recidivate" outcome); German 65% female
//     vs 71% male low credit risk;
//   - mediated bias: the sensitive attribute influences the label both
//     directly and through the mediators shown in the causal graphs, so TE
//     decomposes into non-trivial NDE and NIE components as in the paper's
//     Adult analysis (Section 4.2).
//
// Calibration is exact in expectation: after sampling features, per-group
// intercepts of the label logit are solved by bisection so the group base
// rates match their targets.
package synth

import (
	"math"

	"fairbench/internal/causal"
	"fairbench/internal/dataset"
	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// PaperSize returns the paper size of the named benchmark ("adult",
// "compas" or "german"), or 0 for any other name: the tuple count its
// generator produces for n <= 0, and the largest n a grid spec may
// request.
func PaperSize(dataset string) int {
	switch dataset {
	case "adult":
		return 45222
	case "compas":
		return 7214
	case "german":
		return 1000
	}
	return 0
}

// Source bundles a generated dataset with the causal graph it was sampled
// from. The graph drives the causal fairness metrics and the causal
// pre-processing approaches.
type Source struct {
	Data  *dataset.Dataset
	Graph *causal.Graph
}

// calibrateIntercept finds b such that mean_i sigmoid(score[i]+b) = target
// by bisection; sigmoid means are monotone in b so this converges fast.
func calibrateIntercept(scores []float64, target float64) float64 {
	lo, hi := -30.0, 30.0
	for iter := 0; iter < 80; iter++ {
		mid := (lo + hi) / 2
		var mean float64
		for _, z := range scores {
			mean += matrix.Sigmoid(z + mid)
		}
		mean /= float64(len(scores))
		if mean < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// sampleLabels draws Y ~ Bernoulli(sigmoid(score+b_s)) with per-group
// intercepts calibrated to the target base rates.
func sampleLabels(scores []float64, s []int, target0, target1 float64, g *rng.RNG) []int {
	var sc0, sc1 []float64
	for i, v := range scores {
		if s[i] == 1 {
			sc1 = append(sc1, v)
		} else {
			sc0 = append(sc0, v)
		}
	}
	b0 := calibrateIntercept(sc0, target0)
	b1 := calibrateIntercept(sc1, target1)
	y := make([]int, len(scores))
	for i, v := range scores {
		b := b0
		if s[i] == 1 {
			b = b1
		}
		y[i] = g.Bernoulli(matrix.Sigmoid(v + b))
	}
	return y
}

func clip(v, lo, hi float64) float64 {
	return math.Min(hi, math.Max(lo, v))
}

// Adult generates n tuples of the Adult census dataset (default n = 45222
// when n <= 0). Sensitive attribute: Sex (1 = Male privileged); task:
// Income >= $50K.
func Adult(n int, seed int64) *Source {
	if n <= 0 {
		n = PaperSize("adult")
	}
	g := rng.New(seed)
	attrs := []dataset.Attr{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Workclass", Kind: dataset.Categorical, Card: 4},
		{Name: "Education_level", Kind: dataset.Numeric},
		{Name: "Marital_status", Kind: dataset.Categorical, Card: 3},
		{Name: "Occupation", Kind: dataset.Categorical, Card: 6},
		{Name: "Relationship", Kind: dataset.Categorical, Card: 3},
		{Name: "Race", Kind: dataset.Categorical, Card: 2},
		{Name: "Hours_per_week", Kind: dataset.Numeric},
		{Name: "Native_country", Kind: dataset.Categorical, Card: 2},
	}
	d := dataset.NewFlat("Adult", attrs, n)
	d.SName, d.YName = "Sex", "Income"
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		sex := g.Bernoulli(0.67) // 1 = Male
		age := clip(g.Normal(38.5, 13), 17, 90)
		race := g.Bernoulli(0.86)    // 1 = White
		country := g.Bernoulli(0.90) // 1 = US

		// Education_level (years): women's educational access is slightly
		// suppressed in the 1994 census data; age and race also matter.
		edu := clip(g.Normal(9.2+1.0*float64(sex)+0.02*(age-38)+0.8*float64(race)+0.6*float64(country), 2.4), 1, 16)

		// Marital_status: 0=married, 1=never-married, 2=divorced; driven by
		// age and sex.
		pm := matrix.Sigmoid(0.06*(age-30) + 0.7*float64(sex) - 0.2)
		var marital float64
		if g.Float64() < pm {
			marital = 0
		} else if g.Float64() < 0.7 {
			marital = 1
		} else {
			marital = 2
		}

		// Relationship: 0=husband/wife, 1=own-child, 2=not-in-family;
		// follows marital status and sex.
		var rel float64
		if marital == 0 {
			rel = 0
		} else if age < 25 && g.Float64() < 0.6 {
			rel = 1
		} else {
			rel = 2
		}

		// Occupation: 0=admin, 1=craft, 2=exec/managerial, 3=professional,
		// 4=sales, 5=service. Gender and education shift the distribution
		// (occupational segregation is the main indirect path in Adult).
		wExec := math.Exp(0.35*edu/4 + 0.9*float64(sex))
		wProf := math.Exp(0.55 * edu / 4)
		wCraft := math.Exp(1.4 * float64(sex))
		wAdmin := math.Exp(1.2 * (1 - float64(sex)))
		wSales := math.Exp(0.4)
		wServ := math.Exp(1.0 * (1 - float64(sex)))
		occ := float64(g.Categorical([]float64{wAdmin, wCraft, wExec, wProf, wSales, wServ}))

		// Workclass: 0=private, 1=self-emp, 2=gov, 3=other.
		wc := float64(g.Categorical([]float64{
			6, 1 + 0.4*float64(sex), 1.4 + 0.08*edu, 0.3,
		}))

		// Hours_per_week: men and the highly educated work longer paid
		// hours in this data.
		hours := clip(g.Normal(34+6.5*float64(sex)+0.45*(edu-9), 9), 1, 99)

		fillRow(d.X[i], age, wc, edu, marital, occ, rel, float64(race), hours, float64(country))
		d.S[i] = sex

		// Income logit: mediated effects via education, occupation, hours,
		// marital status; the per-group calibrated intercepts add the
		// direct Sex -> Income edge of Fig 14(a).
		score := 0.33*(edu-10) + 0.045*(hours-40) + 0.035*(age-38) -
			0.012*math.Pow(age-50, 2)/10
		switch occ {
		case 2:
			score += 0.9
		case 3:
			score += 0.7
		case 5:
			score -= 0.6
		}
		if marital == 0 {
			score += 1.1
		}
		if wc == 1 {
			score += 0.25
		}
		score += 0.3*float64(race) + 0.2*float64(country)
		scores[i] = score
	}
	d.Y = sampleLabels(scores, d.S, 0.11, 0.32, g)
	return &Source{Data: d, Graph: adultGraph()}
}

func adultGraph() *causal.Graph {
	g := causal.NewGraph()
	// Fig 14(a): Sex is the (red) sensitive root; Income the (green) label.
	for _, e := range [][2]string{
		{"Sex", "Education_level"}, {"Sex", "Marital_status"}, {"Sex", "Occupation"},
		{"Sex", "Relationship"}, {"Sex", "Hours_per_week"}, {"Sex", "Income"},
		{"Age", "Education_level"}, {"Age", "Marital_status"}, {"Age", "Workclass"},
		{"Age", "Hours_per_week"}, {"Age", "Relationship"}, {"Age", "Income"},
		{"Race", "Education_level"}, {"Race", "Income"},
		{"Native_country", "Education_level"}, {"Native_country", "Income"},
		{"Education_level", "Occupation"}, {"Education_level", "Workclass"},
		{"Education_level", "Hours_per_week"}, {"Education_level", "Income"},
		{"Marital_status", "Relationship"}, {"Marital_status", "Income"},
		{"Occupation", "Income"}, {"Workclass", "Income"},
		{"Relationship", "Income"}, {"Hours_per_week", "Income"},
	} {
		g.MustEdge(e[0], e[1])
	}
	return g
}

// COMPAS generates n tuples of the COMPAS recidivism dataset (default
// n = 7214 when n <= 0). Sensitive attribute: Race (1 = non-African-
// American privileged); task: Risk_of_recidivism with Y=1 the favorable
// "does not reoffend within two years" outcome, matching the paper's
// reading that 51% of African-Americans have Y=0 versus 39% of others.
func COMPAS(n int, seed int64) *Source {
	if n <= 0 {
		n = PaperSize("compas")
	}
	g := rng.New(seed)
	attrs := []dataset.Attr{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Sex", Kind: dataset.Categorical, Card: 2},
		{Name: "Prior", Kind: dataset.Numeric},
	}
	d := dataset.NewFlat("COMPAS", attrs, n)
	d.SName, d.YName = "Race", "Risk_of_recidivism"
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		race := g.Bernoulli(0.49) // 1 = non-African-American (privileged)
		sex := g.Bernoulli(0.81)  // 1 = Male
		age := clip(g.Normal(32+3*float64(race), 11), 18, 80)

		// Prior convictions: over-policing of the unprivileged group feeds
		// the indirect path Race -> Prior -> Risk; the direct Race -> Risk
		// edge carries the rest of the calibrated group gap.
		lam := math.Exp(0.9 - 0.35*float64(race) - 0.018*(age-30) + 0.35*float64(sex))
		prior := float64(g.Poisson(lam))

		fillRow(d.X[i], age, float64(sex), prior)
		d.S[i] = race

		// Favorable outcome (no recidivism) logit: fewer priors, older age,
		// and female sex predict desistance.
		scores[i] = -0.30*prior + 0.035*(age-30) - 0.35*float64(sex)
	}
	d.Y = sampleLabels(scores, d.S, 0.49, 0.61, g)
	return &Source{Data: d, Graph: compasGraph()}
}

func compasGraph() *causal.Graph {
	g := causal.NewGraph()
	// Fig 14(b): Race -> {Prior, Risk}; Age -> {Prior, Risk};
	// Sex -> {Prior, Risk}; Prior -> Risk.
	for _, e := range [][2]string{
		{"Race", "Prior"}, {"Race", "Risk_of_recidivism"},
		{"Age", "Prior"}, {"Age", "Risk_of_recidivism"},
		{"Sex", "Prior"}, {"Sex", "Risk_of_recidivism"},
		{"Prior", "Risk_of_recidivism"},
	} {
		g.MustEdge(e[0], e[1])
	}
	return g
}

// German generates n tuples of the German credit dataset (default n = 1000
// when n <= 0). Sensitive attribute: Sex (1 = Male privileged); task:
// Credit_risk with Y=1 the favorable "low risk" outcome (70% of the
// population; 65% of females vs 71% of males).
func German(n int, seed int64) *Source {
	if n <= 0 {
		n = PaperSize("german")
	}
	g := rng.New(seed)
	attrs := []dataset.Attr{
		{Name: "Age", Kind: dataset.Numeric},
		{Name: "Credit_amount", Kind: dataset.Numeric},
		{Name: "Month", Kind: dataset.Numeric},
		{Name: "Investment", Kind: dataset.Categorical, Card: 3},
		{Name: "Savings", Kind: dataset.Categorical, Card: 4},
		{Name: "Housing", Kind: dataset.Categorical, Card: 3},
		{Name: "Property", Kind: dataset.Categorical, Card: 3},
		{Name: "Status", Kind: dataset.Categorical, Card: 4},
		{Name: "Credit_history", Kind: dataset.Categorical, Card: 3},
	}
	d := dataset.NewFlat("German", attrs, n)
	d.SName, d.YName = "Sex", "Credit_risk"
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		sex := g.Bernoulli(0.69) // 1 = Male
		age := clip(g.Normal(35.5, 11), 19, 75)

		// Savings: 0=none..3=rich; account balances skew male in the data.
		savings := float64(g.Categorical([]float64{
			4 - 1.2*float64(sex), 2, 1.5, 1 + 0.8*float64(sex),
		}))
		// Checking account Status: 0=negative..3=no-account.
		status := float64(g.Categorical([]float64{
			2.5 - 0.6*float64(sex), 2.5, 1.5, 3 + 0.6*float64(sex),
		}))
		// Housing: 0=rent, 1=own, 2=free; owning correlates with age.
		housing := float64(g.Categorical([]float64{
			2.5, 1.5 + 0.07*(age-30), 0.6,
		}))
		// Property: 0=none..2=real estate; correlates with age.
		property := float64(g.Categorical([]float64{
			2, 2, 1 + 0.05*(age-30),
		}))
		// Credit_history: 0=critical, 1=paid duly, 2=all paid; age helps.
		history := float64(g.Categorical([]float64{
			1.8 - 0.02*(age-35), 5, 1.2 + 0.03*(age-35),
		}))
		amount := math.Exp(g.Normal(7.8+0.12*float64(sex), 0.75)) // ~ DM
		months := clip(g.Normal(12+amount/400, 8), 4, 72)
		invest := float64(g.Categorical([]float64{3, 2, 1 + savings/2}))

		fillRow(d.X[i], age, amount, months, invest, savings, housing, property, status, history)
		d.S[i] = sex

		// Low-risk logit: savings, clean history, property, shorter and
		// smaller loans predict repayment.
		scores[i] = 0.35*savings + 0.55*(history-1) + 0.3*property +
			0.25*(housing-1) - 0.25*b2f(status == 0) -
			0.00012*(amount-2500) - 0.02*(months-20) + 0.015*(age-35)
		_ = invest
	}
	d.Y = sampleLabels(scores, d.S, 0.65, 0.71, g)
	return &Source{Data: d, Graph: germanGraph()}
}

func germanGraph() *causal.Graph {
	g := causal.NewGraph()
	// Fig 14(c): Sex and Age are roots; every attribute feeds Credit_risk.
	for _, e := range [][2]string{
		{"Sex", "Savings"}, {"Sex", "Status"}, {"Sex", "Credit_amount"}, {"Sex", "Credit_risk"},
		{"Age", "Housing"}, {"Age", "Property"}, {"Age", "Credit_history"}, {"Age", "Credit_risk"},
		{"Savings", "Investment"}, {"Credit_amount", "Month"},
		{"Credit_amount", "Credit_risk"}, {"Month", "Credit_risk"},
		{"Investment", "Credit_risk"}, {"Savings", "Credit_risk"},
		{"Housing", "Credit_risk"}, {"Property", "Credit_risk"},
		{"Status", "Credit_risk"}, {"Credit_history", "Credit_risk"},
	} {
		g.MustEdge(e[0], e[1])
	}
	return g
}

// fillRow writes vals into an already-allocated flat-backed dataset row;
// the variadic slice never escapes, so sampling stays allocation-free per
// tuple.
func fillRow(row []float64, vals ...float64) {
	copy(row, vals)
}

// b2f converts a bool condition to 1.0/0.0 for use inside logit formulas.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
