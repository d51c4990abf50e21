package assertionbench_test

import (
	"context"
	"fmt"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// resultsIdentical mirrors dverify's field-for-field result comparison:
// "" when equal, else the first difference.
func resultsIdentical(a, b fpv.Result) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case a.NonVacuous != b.NonVacuous:
		return fmt.Sprintf("nonvacuous %v vs %v", a.NonVacuous, b.NonVacuous)
	case a.Exhaustive != b.Exhaustive:
		return fmt.Sprintf("exhaustive %v vs %v", a.Exhaustive, b.Exhaustive)
	case a.States != b.States:
		return fmt.Sprintf("states %d vs %d", a.States, b.States)
	case a.Depth != b.Depth:
		return fmt.Sprintf("depth %d vs %d", a.Depth, b.Depth)
	case (a.CEX == nil) != (b.CEX == nil):
		return fmt.Sprintf("cex presence %v vs %v", a.CEX != nil, b.CEX != nil)
	}
	if a.CEX == nil {
		return ""
	}
	if a.CEX.ViolationCycle != b.CEX.ViolationCycle || a.CEX.AttemptCycle != b.CEX.AttemptCycle {
		return fmt.Sprintf("cex cycle %d/%d vs %d/%d",
			a.CEX.ViolationCycle, a.CEX.AttemptCycle, b.CEX.ViolationCycle, b.CEX.AttemptCycle)
	}
	for t := range a.CEX.Inputs {
		for i := range a.CEX.Inputs[t] {
			if a.CEX.Inputs[t][i] != b.CEX.Inputs[t][i] {
				return fmt.Sprintf("cex stimulus at cycle %d input %d", t, i)
			}
		}
	}
	return ""
}

// TestCorpusConeAndSlicedAgreement sweeps real corpus designs with mined
// assertions through the four (cone, slices) engine configurations:
//
//   - bit-sliced exploration must reproduce the scalar loops field for
//     field, with and without cone reduction;
//   - cone-reduced search must agree semantically with the full-design
//     search: it must close whenever the full search closes, and two
//     closed searches must reach the same verdict.
//
// This is the deterministic corpus complement of dverify oracles 6/7,
// which cover the same contracts over the random fuzz genome.
func TestCorpusConeAndSlicedAgreement(t *testing.T) {
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

			run := func(fullDesign, scalar bool) fpv.Result {
				o := opt
				o.FullDesign, o.Scalar = fullDesign, scalar
				return eng.VerifySource(context.Background(), nl, src, o)
			}
			prod := run(false, false)
			coneScalar := run(false, true)
			full := run(true, false)
			fullScalar := run(true, true)
			if prod.Status == fpv.StatusError {
				continue // mined assertion outside the FPV fragment
			}
			checked++

			// Slicing is bit-identical under either cone setting.
			if diff := resultsIdentical(prod, coneScalar); diff != "" {
				t.Errorf("%s %q: sliced vs scalar (cone on): %s", d.Name, src, diff)
			}
			if diff := resultsIdentical(full, fullScalar); diff != "" {
				t.Errorf("%s %q: sliced vs scalar (cone off): %s", d.Name, src, diff)
			}

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
