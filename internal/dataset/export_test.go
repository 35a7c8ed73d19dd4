package dataset

import "fairbench/internal/matrix"

// Toy exposes the package tests' toy dataset to the external tests.
var Toy = toy

// ReferenceDesign is the standardizing pipeline StandardizedDesign
// replaced, kept as its reference: clone d, fit a standardizer on the
// clone, standardize every numeric cell of the clone in place, then copy
// the clone's rows, with S appended when includeS, into a design matrix.
func ReferenceDesign(d *Dataset, includeS bool) matrix.Dense {
	work := d.Clone()
	s := FitStandardizer(work)
	for _, row := range work.X {
		for j := range row {
			if s.kinds[j] == Numeric {
				row[j] = (row[j] - s.mean[j]) / s.std[j]
			}
		}
	}
	return work.FeatureMatrix(includeS)
}
