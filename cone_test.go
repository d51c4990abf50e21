package assertionbench_test

import (
	"context"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// TestCorpusConeAgreement sweeps real corpus designs with mined
// assertions through the cone-reduced and the full-design engine
// configurations: cone-reduced search must agree semantically with the
// full-design search. It must close whenever the full search closes,
// and two closed searches must reach the same verdict.
//
// This is the deterministic corpus complement of dverify oracle 6, which
// covers the same contract over the random fuzz genome.
func TestCorpusConeAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus sweep")
	}
	corpus := bench.TestCorpus()
	eng := fpv.NewEngine()
	opt := fpv.Options{
		MaxProductStates: 4000, MaxInputBits: 8, MaxInputSamples: 6,
		RandomRuns: 8, RandomDepth: 16, Seed: 3,
	}
	designs, props, checked := 0, 0, 0
	for di := 0; di < len(corpus); di += 7 {
		d := corpus[di]
		nl, err := verilog.ElaborateSource(d.Source, d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		mined, err := mine.GoldMine(context.Background(), nl, mine.Options{MaxAssertions: 4})
		if err != nil {
			t.Fatalf("%s: mine: %v", d.Name, err)
		}
		designs++
		for _, m := range mined {
			src := m.Assertion.String()
			props++

			prod := eng.VerifySource(context.Background(), nl, src, opt)
			fullOpt := opt
			fullOpt.FullDesign = true
			full := eng.VerifySource(context.Background(), nl, src, fullOpt)
			if prod.Status == fpv.StatusError {
				continue // mined assertion outside the FPV fragment
			}
			checked++

			// Cone reduction agrees semantically with the full search.
			if full.Exhaustive && !prod.Exhaustive {
				t.Errorf("%s %q: full search closed but cone search did not", d.Name, src)
			}
			if full.Exhaustive && prod.Exhaustive {
				if prod.Status != full.Status || prod.NonVacuous != full.NonVacuous {
					t.Errorf("%s %q: cone %v (nonvacuous=%v) vs full %v (nonvacuous=%v)",
						d.Name, src, prod.Status, prod.NonVacuous, full.Status, full.NonVacuous)
				}
			}
			if prod.Exhaustive && !full.Exhaustive {
				if full.Status == fpv.StatusCEX && prod.Status != fpv.StatusCEX {
					t.Errorf("%s %q: full bounded CEX but exhaustive cone verdict %v", d.Name, src, prod.Status)
				}
				if full.NonVacuous && prod.Status == fpv.StatusVacuous {
					t.Errorf("%s %q: full bounded non-vacuity but cone verdict vacuous", d.Name, src)
				}
			}
		}
	}
	if designs < 10 || checked < designs {
		t.Fatalf("sweep too thin: %d designs, %d properties, %d checked", designs, props, checked)
	}
}
