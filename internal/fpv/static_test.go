package fpv

import (
	"context"
	"testing"

	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
)

// constRegSrc has two provably constant registers next to live logic: en
// can only re-assert itself (and powers on zero), dead can only absorb
// en. cnt free-runs, so the design is not trivially constant overall.
const constRegSrc = `
module constregs(clk, rst, req, en, cnt, dead);
input clk, rst, req;
output en;
output [3:0] cnt;
output dead;
reg en;
reg [3:0] cnt;
reg dead;
always @(posedge clk) en <= en & req;
always @(posedge clk)
  if (rst) cnt <= 4'b0;
  else cnt <= cnt + 1;
always @(posedge clk) dead <= dead | (en & req);
endmodule
`

func TestStaticDischargeVacuous(t *testing.T) {
	nl := elab(t, constRegSrc, "constregs")
	r := verify(t, nl, "en == 1 |-> cnt == 0")
	if r.Status != StatusVacuous || !r.Static {
		t.Fatalf("impossible antecedent: status %v static %v (err=%v), want statically vacuous", r.Status, r.Static, r.Err)
	}
	if !r.Exhaustive {
		t.Error("a static vacuity discharge is a closed-form proof, must report Exhaustive")
	}
	if r.NonVacuous {
		t.Error("vacuous discharge must not claim a non-vacuity witness")
	}
}

func TestStaticDischargeProven(t *testing.T) {
	nl := elab(t, constRegSrc, "constregs")
	r := verify(t, nl, "cnt <= 100 |-> en == 0")
	if r.Status != StatusProven || !r.Static {
		t.Fatalf("tautological implication: status %v static %v (err=%v), want statically proven", r.Status, r.Static, r.Err)
	}
	if !r.Exhaustive || !r.NonVacuous {
		t.Errorf("static proof must be exhaustive and non-vacuous, got Exhaustive=%v NonVacuous=%v", r.Exhaustive, r.NonVacuous)
	}
}

// TestStaticRefutationWitness checks the static CEX path end-to-end:
// the consequent is impossible and the antecedent fires on the
// zero-stimulus trajectory, so the pass must fabricate a concrete
// counter-example — and that counter-example must replay as a real
// violation on the event-driven simulator at the cycle it claims.
func TestStaticRefutationWitness(t *testing.T) {
	nl := elab(t, constRegSrc, "constregs")
	prop := "cnt <= 100 |-> dead == 1"
	r := verify(t, nl, prop)
	if r.Status != StatusCEX || !r.Static {
		t.Fatalf("impossible consequent: status %v static %v (err=%v), want static counter-example", r.Status, r.Static, r.Err)
	}
	if r.Exhaustive {
		t.Error("a single fabricated witness is not an exhaustive search, must not report Exhaustive")
	}
	if r.CEX == nil {
		t.Fatal("StatusCEX without a counter-example")
	}
	for tc, in := range r.CEX.Inputs {
		for _, v := range in {
			if v != 0 {
				t.Fatalf("static witness must be the zero-stimulus trajectory, cycle %d carries %v", tc, in)
			}
		}
	}
	// Replay: drive the recorded stimulus through the simulator and run
	// the monitor over the sampled trace.
	a, err := sva.Parse(prop)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(nl)
	var sampled [][]uint64
	for tc, in := range r.CEX.Inputs {
		if err := s.SetInputs(in); err != nil {
			t.Fatalf("cycle %d: %v", tc, err)
		}
		s.Settle()
		sampled = append(sampled, append([]uint64(nil), s.Env()...))
		s.Step()
	}
	violations, _, err := CheckTrace(nl, a, sim.TraceFromSamples(nl, sampled))
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) == 0 {
		t.Fatal("static counter-example does not replay as a violation")
	}
	if v := violations[0]; v.ViolationCycle != r.CEX.ViolationCycle || v.AttemptCycle != r.CEX.AttemptCycle {
		t.Fatalf("replay violates at cycle %d (attempt %d), CEX claims %d (%d)",
			v.ViolationCycle, v.AttemptCycle, r.CEX.ViolationCycle, r.CEX.AttemptCycle)
	}
}

// TestStaticFallThrough: a property the lattice cannot decide must reach
// the search untouched and report Static == false.
func TestStaticFallThrough(t *testing.T) {
	nl := elab(t, constRegSrc, "constregs")
	r := verify(t, nl, "req == 1 |=> cnt != 0")
	if r.Static {
		t.Fatalf("input-dependent property was statically discharged: %v", r.Status)
	}
	if r.Status != StatusCEX {
		t.Fatalf("status %v (err=%v), want a searched counter-example (rst clears cnt after req)", r.Status, r.Err)
	}
}

// TestStaticModeVerdictEquality: on properties the pass cannot discharge,
// the static pass and the pure search (NoStatic) must produce the same
// verdict, non-vacuity and exhaustiveness.
func TestStaticModeVerdictEquality(t *testing.T) {
	nl := elab(t, constRegSrc, "constregs")
	props := []string{
		"(en || cnt == 3) |=> req == 1",
		"req == 1 |=> cnt != 0",
		"rst == 1 |=> cnt == 0",
		"cnt == 5 |-> ##1 (cnt == 6 || rst)",
		"$rose(req) |-> ##[0:2] cnt != 9",
	}
	e := NewEngine()
	ctx := context.Background()
	for _, p := range props {
		auto := e.VerifySource(ctx, nl, p, Options{})
		off := e.VerifySource(ctx, nl, p, Options{NoStatic: true})
		if off.Static {
			t.Fatalf("%q: NoStatic produced a static discharge", p)
		}
		if auto.Status != off.Status || auto.NonVacuous != off.NonVacuous || auto.Exhaustive != off.Exhaustive {
			t.Errorf("%q: auto (status %v nv=%v exh=%v) vs off (status %v nv=%v exh=%v)",
				p, auto.Status, auto.NonVacuous, auto.Exhaustive, off.Status, off.NonVacuous, off.Exhaustive)
		}
	}
}

// refinedSrc: busy clears under reset and otherwise follows the free
// input req — not globally constant, so only the antecedent-refined
// walk can discharge reset-shaped properties about it.
const refinedSrc = `
module refined(input clk, input rst, input req, output reg busy);
always @(posedge clk)
  if (rst) busy <= 1'b0;
  else busy <= req;
endmodule
`

// TestRefinedStaticProof: the canonical reset property discharges via
// the antecedent-refined walk plus a concrete non-vacuity witness (the
// deterministic reset-driving candidate traces fire rst), and the
// static verdict matches a pure search bit for bit.
func TestRefinedStaticProof(t *testing.T) {
	nl := elab(t, refinedSrc, "refined")
	r := verify(t, nl, "rst == 1 |=> busy == 0")
	if r.Status != StatusProven || !r.Static {
		t.Fatalf("reset property: status %v static %v (err=%v), want statically proven", r.Status, r.Static, r.Err)
	}
	if !r.Exhaustive || !r.NonVacuous {
		t.Errorf("refined static proof must be exhaustive and non-vacuous, got Exhaustive=%v NonVacuous=%v", r.Exhaustive, r.NonVacuous)
	}
	off := VerifySource(context.Background(), nl, "rst == 1 |=> busy == 0", Options{NoStatic: true})
	if off.Status != StatusProven || off.Static {
		t.Fatalf("pure search disagrees: status %v static %v", off.Status, off.Static)
	}
}

// TestRefinedRefutationFallsThrough: the refined walk statically
// refutes the property, but the zero-stimulus witness never fires the
// antecedent (rst stays low), so the pass must fall through and let the
// engine produce the searched counter-example.
func TestRefinedRefutationFallsThrough(t *testing.T) {
	nl := elab(t, refinedSrc, "refined")
	r := verify(t, nl, "rst == 1 |=> busy == 1")
	if r.Status != StatusCEX || r.Static {
		t.Fatalf("refuted reset property: status %v static %v (err=%v), want searched CEX", r.Status, r.Static, r.Err)
	}
}

// TestRefinedContradictionVacuous: antecedent atoms that are satisfiable
// one by one but jointly contradictory are caught by the refinement
// meet, not by any single-step truth check.
func TestRefinedContradictionVacuous(t *testing.T) {
	nl := elab(t, refinedSrc, "refined")
	r := verify(t, nl, "rst == 1 && rst == 0 |-> busy == 0")
	if r.Status != StatusVacuous || !r.Static || !r.Exhaustive {
		t.Fatalf("contradictory antecedent: status %v static %v exh %v (err=%v), want static exhaustive vacuity",
			r.Status, r.Static, r.Exhaustive, r.Err)
	}
}
