// Package registry enumerates the 18 evaluated fair-classification
// variants of the paper (Figure 5, rightmost column) and constructs them
// with their paper hyper-parameters. Causal approaches receive the
// dataset's causal graph; pre- and post-processing approaches receive the
// name of their downstream model family (logistic regression unless the
// model-sensitivity experiment swaps it).
package registry

import (
	"fmt"

	"fairbench/internal/causal"
	"fairbench/internal/fair"
	"fairbench/internal/inproc"
	"fairbench/internal/postproc"
	"fairbench/internal/preproc"
)

// Config carries the per-run construction context.
type Config struct {
	// Graph is the dataset's causal model (required by the Zha-Wu
	// variants; nil disables them).
	Graph *causal.Graph
	// Model names the downstream classifier family of pre- and
	// post-processing (see classifier.New; "" = logistic regression).
	Model string
	// Seed drives every stochastic component.
	Seed int64
}

// Names lists the evaluated variants in the paper's presentation order
// (pre, then in, then post).
var Names = []string{
	"KamCal-DP", "Feld-DP", "Calmon-DP", "ZhaWu-PSF", "ZhaWu-DCE",
	"Salimi-JF-MaxSAT", "Salimi-JF-MatFac",
	"Zafar-DP-Fair", "Zafar-DP-Acc", "Zafar-EO-Fair", "ZhaLe-EO",
	"Kearns-PE", "Celis-PP", "Thomas-DP", "Thomas-EO",
	"KamKar-DP", "Hardt-EO", "Pleiss-EOP",
}

// ExtendedNames lists the three additional appendix variants (Figure 15):
// Madras^dp fair representations and the Agarwal^dp/eo reductions.
var ExtendedNames = []string{"Madras-DP", "Agarwal-DP", "Agarwal-EO"}

// New constructs one variant by its registry name.
func New(name string, cfg Config) (fair.Approach, error) {
	switch name {
	case "Madras-DP":
		return preproc.NewMadras(cfg.Model, cfg.Seed), nil
	case "Agarwal-DP":
		return inproc.NewAgarwalDP(), nil
	case "Agarwal-EO":
		return inproc.NewAgarwalEO(), nil
	case "LR":
		b := fair.NewBaseline()
		b.Model = cfg.Model
		return b, nil
	case "KamCal-DP":
		return preproc.NewKamCal(cfg.Model, cfg.Seed), nil
	case "Feld-DP":
		return preproc.NewFeld(cfg.Model), nil
	case "Calmon-DP":
		return preproc.NewCalmon(cfg.Model, cfg.Seed), nil
	case "ZhaWu-PSF":
		return preproc.NewZhaWuPSF(cfg.Graph, cfg.Model), nil
	case "ZhaWu-DCE":
		return preproc.NewZhaWuDCE(cfg.Graph, cfg.Model), nil
	case "Salimi-JF-MaxSAT":
		return preproc.NewSalimiMaxSAT(cfg.Model, cfg.Seed), nil
	case "Salimi-JF-MatFac":
		return preproc.NewSalimiMatFac(cfg.Model, cfg.Seed), nil
	case "Zafar-DP-Fair":
		return inproc.NewZafarDPFair(), nil
	case "Zafar-DP-Acc":
		return inproc.NewZafarDPAcc(), nil
	case "Zafar-EO-Fair":
		return inproc.NewZafarEOFair(), nil
	case "ZhaLe-EO":
		return inproc.NewZhaLe(cfg.Seed), nil
	case "Kearns-PE":
		return inproc.NewKearns(), nil
	case "Celis-PP":
		return inproc.NewCelis(), nil
	case "Thomas-DP":
		return inproc.NewThomasDP(cfg.Seed), nil
	case "Thomas-EO":
		return inproc.NewThomasEO(cfg.Seed), nil
	case "KamKar-DP":
		return postproc.NewKamKar(cfg.Model, cfg.Seed), nil
	case "Hardt-EO":
		return postproc.NewHardt(cfg.Model, cfg.Seed), nil
	case "Pleiss-EOP":
		return postproc.NewPleiss(cfg.Model, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("registry: unknown approach %q", name)
	}
}

// ByStage returns the evaluated variant names grouped by stage, each group
// in presentation order (the order of Names).
func ByStage() map[fair.Stage][]string {
	out := map[fair.Stage][]string{}
	for _, n := range Names {
		a, err := New(n, Config{})
		if err != nil {
			continue
		}
		out[a.Stage()] = append(out[a.Stage()], n)
	}
	return out
}
