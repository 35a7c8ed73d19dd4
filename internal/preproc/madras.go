package preproc

import (
	"math"

	"fairbench/internal/dataset"
	"fairbench/internal/fair"
	"fairbench/internal/matrix"
	"fairbench/internal/rng"
)

// Madras implements Madras et al.'s adversarially fair representations
// (LAFTR), the additional pre-processing approach of the paper's appendix
// (Figure 15, Madras^dp): a linear encoder z = enc(x) is trained jointly
// with a label head (keep z predictive) and an adversary that tries to
// recover S from z (make z group-blind). The repaired dataset replaces the
// attributes with the learned representation, so any naively trained
// downstream classifier inherits (approximate) demographic parity.
type Madras struct {
	// Epochs of alternating SGD (default 60).
	Epochs int
	// Seed drives initialization and shuffling.
	Seed int64

	std *dataset.Standardizer
	enc [][]float64 // madrasDim x (d+1), bias last
}

// Madras's representation width, the weight of its adversarial term and
// its learning rate.
const (
	madrasDim   int     = 8
	madrasAlpha float64 = 1.5
	madrasStep  float64 = 0.05
)

// Repair implements fair.Repairer: it fits the encoder and returns the
// dataset re-expressed in representation space.
func (m *Madras) Repair(train *dataset.Dataset) (*dataset.Dataset, error) {
	if m.Epochs == 0 {
		m.Epochs = 60
	}
	std, x := train.StandardizedDesign(false)
	m.std = std
	n, d := x.Rows, x.Cols
	g := rng.New(m.Seed)

	// Encoder, label head, adversary head (both heads read z).
	m.enc = make([][]float64, madrasDim)
	for h := range m.enc {
		m.enc[h] = make([]float64, d+1)
		for j := range m.enc[h] {
			m.enc[h][j] = g.Normal(0, 1/math.Sqrt(float64(d)))
		}
	}
	yHead := make([]float64, madrasDim+1)
	aHead := make([]float64, madrasDim+1)
	z := make([]float64, madrasDim)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < m.Epochs; epoch++ {
		g.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		lr := madrasStep / (1 + 0.02*float64(epoch))
		for _, i := range order {
			row := x.Row(i)
			// Forward: z = tanh(enc·x).
			for h := 0; h < madrasDim; h++ {
				s := m.enc[h][d]
				for j, v := range row {
					s += m.enc[h][j] * v
				}
				z[h] = math.Tanh(s)
			}
			py := matrix.Sigmoid(headScore(yHead, z))
			ps := matrix.Sigmoid(headScore(aHead, z))
			yi := float64(train.Y[i])
			si := float64(train.S[i])

			// Heads: label head minimizes its loss; adversary minimizes
			// its own.
			dY := py - yi
			dA := ps - si
			for h := 0; h < madrasDim; h++ {
				yHead[h] -= lr * dY * z[h]
				aHead[h] -= lr * dA * z[h]
			}
			yHead[madrasDim] -= lr * dY
			aHead[madrasDim] -= lr * dA

			// Encoder: descend label loss, ascend adversary loss
			// (gradient reversal).
			for h := 0; h < madrasDim; h++ {
				dz := dY*yHead[h] - madrasAlpha*dA*aHead[h]
				dpre := dz * (1 - z[h]*z[h])
				for j, v := range row {
					m.enc[h][j] -= lr * dpre * v
				}
				m.enc[h][d] -= lr * dpre
			}
		}
	}

	// Re-express the training data in representation space.
	out := &dataset.Dataset{
		Name:  train.Name + "+LAFTR",
		Attrs: make([]dataset.Attr, madrasDim),
		X:     make([][]float64, n),
		S:     append([]int(nil), train.S...),
		Y:     append([]int(nil), train.Y...),
		SName: train.SName,
		YName: train.YName,
	}
	for h := 0; h < madrasDim; h++ {
		out.Attrs[h] = dataset.Attr{Name: "z" + string(rune('0'+h)), Kind: dataset.Numeric}
	}
	for i := range out.X {
		out.X[i] = m.encode(train.X[i])
	}
	return out, nil
}

func headScore(head, z []float64) float64 {
	s := head[len(head)-1]
	for h, v := range z {
		s += head[h] * v
	}
	return s
}

// encode maps a raw feature row into representation space.
func (m *Madras) encode(x []float64) []float64 {
	row := append([]float64(nil), x...)
	m.std.ApplyRow(row)
	d := len(m.enc[0]) - 1
	z := make([]float64, madrasDim)
	for h := 0; h < madrasDim; h++ {
		s := m.enc[h][d]
		for j := 0; j < d && j < len(row); j++ {
			s += m.enc[h][j] * row[j]
		}
		z[h] = math.Tanh(s)
	}
	return z
}

// TransformRow implements fair.TestTransformer: test tuples are encoded
// with the trained encoder (S plays no role in the transform).
func (m *Madras) TransformRow(x []float64, _ int) []float64 {
	if m.enc == nil {
		return x
	}
	return m.encode(x)
}

// Fork implements fair.TestTransformer: the fork shares the fitted
// encoder (TransformRow keeps no scratch).
func (m *Madras) Fork() fair.TestTransformer {
	c := *m
	return &c
}

// NewMadras returns the appendix's Madras^dp approach.
func NewMadras(model string, seed int64) fair.Approach {
	return &fair.PreProcessed{
		ApproachName: "Madras-DP",
		Target:       []fair.Metric{fair.MetricDI},
		Mechanism:    &Madras{Seed: seed},
		Model:        model,
		IncludeS:     false,
	}
}
