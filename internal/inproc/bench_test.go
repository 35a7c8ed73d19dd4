package inproc

import (
	"testing"

	"fairbench/internal/fair"
	"fairbench/internal/rng"
	"fairbench/internal/synth"
)

// BenchmarkInprocFit times one fit of each approach whose training loop
// fig7-cold spends most in, on fig7-cold's training split: Adult n=5000,
// seed 7, the 70% split (3500 rows).
func BenchmarkInprocFit(b *testing.B) {
	train, _ := synth.Adult(5000, 7).Data.Split(0.7, rng.New(7))
	if train.Len() != 3500 {
		b.Fatalf("training split has %d rows, want 3500", train.Len())
	}
	for _, a := range []struct {
		name string
		new  func() fair.Approach
	}{
		{"Zafar-DP-Fair", NewZafarDPFair},
		{"Zafar-DP-Acc", NewZafarDPAcc},
		{"Zafar-EO-Fair", NewZafarEOFair},
		{"Kearns-PE", NewKearns},
		{"Celis-PP", NewCelis},
		{"Thomas-EO", func() fair.Approach { return NewThomasEO(7) }},
	} {
		b.Run(a.name, func(b *testing.B) {
			for b.Loop() {
				if err := a.new().Fit(train); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
