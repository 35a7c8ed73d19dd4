package experiments

import (
	"fairbench/internal/registry"
	"fairbench/internal/synth"
)

// Extensions reproduces the appendix's Figure 15: the three additional
// variants (Madras^dp, Agarwal^dp, Agarwal^eo) evaluated on one dataset
// alongside the baseline, with the same protocol as Figure 7.
func Extensions(src *synth.Source, seed int64) ([]Row, error) {
	out, err := extensionsGrid(src, seed).RunAll()
	if err != nil {
		return nil, err
	}
	return out.Rows, nil
}

func extensionsGrid(src *synth.Source, seed int64) *Grid {
	return baselineRowsGrid(src, append([]string{"LR"}, registry.ExtendedNames...), seed)
}
