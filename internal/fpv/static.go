package fpv

import (
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
	"assertionbench/internal/vstatic"
)

// Static pre-verification: before any state-space search, each property
// is classified against the design's ternary-lattice fixpoint
// (internal/vstatic). A property whose antecedent is statically false
// (or unsatisfiable under the antecedent-refined window walk) is
// vacuous without exploring a single state; one whose every step is
// statically true is proven; one that cannot be violated under the
// refined walk becomes a proof once a concrete trace witnesses a
// completing attempt; one whose consequent is statically refuted
// gets a concrete counter-example from a zero-stimulus replay (the
// abstract claim alone is never reported as CEX — the witness simulation
// must confirm the violation at a concrete cycle, so static CEXs replay
// exactly like searched ones). Anything else falls through to the
// engine untouched, on exactly the search it would get with the pass
// off. dverify oracle 8 cross-checks static verdicts against full FPV
// with the pass disabled over the fuzz genome.

// coneFor computes the interned cone for one property, applying the
// worthwhileness gate. It depends on the property alone, never on the
// rest of its batch, so a property explores the same cone in any batch
// (dverify oracle 5).
func coneFor(nl *verilog.Netlist, c *sva.Compiled, opt Options) *verilog.Cone {
	if opt.FullDesign {
		return nil
	}
	cone := nl.ConeFor(c.SupportNets())
	if cone.Identity || !coneWorthwhile(cone, nl, opt) {
		return nil
	}
	return cone
}

// staticResult attempts to discharge the property without search,
// returning (result, true) on success. Static proofs and vacuity carry
// Exhaustive=true: the abstract fixpoint covers every reachable
// environment, so an exhaustive search would necessarily close with the
// same verdict. A static proof is NonVacuous — with every antecedent
// step a tautology, any explored path completes the antecedent.
func staticResult(nl *verilog.Netlist, c *sva.Compiled) (Result, bool) {
	a := vstatic.For(nl)
	switch a.Classify(c) {
	case vstatic.PropVacuous:
		return Result{Status: StatusVacuous, Exhaustive: true, Static: true}, true
	case vstatic.PropProven:
		return Result{Status: StatusProven, NonVacuous: true, Exhaustive: true, Static: true}, true
	case vstatic.PropRefuted:
		return staticWitness(nl, c)
	case vstatic.PropHolds:
		return staticHoldsProof(nl, c)
	}
	return Result{}, false
}

// staticHoldsProof upgrades a "cannot be violated" verdict (vstatic's
// PropHolds: under the assumed antecedent every consequent step is
// statically true, but antecedent satisfiability is open) to a full
// proof by witnessing one completing attempt concretely. Candidate
// traces are deterministic — the zero-stimulus trajectory plus a few
// fixed-seed random-stimulus runs — so the verdict stays a pure
// function of (netlist, property). A completed attempt on a reachable
// trace certifies non-vacuity, the abstract walk certifies no attempt
// can fail, and the combination is an exhaustive proof. Without a
// witness the property falls through to the engine: a vacuous verdict
// must come from a real search, never from the abstract walk alone.
// Defensively, a candidate trace that violates the property (only
// possible if the abstract claim were wrong) also falls through.
func staticHoldsProof(nl *verilog.Netlist, c *sva.Compiled) (Result, bool) {
	proven := Result{Status: StatusProven, NonVacuous: true, Exhaustive: true, Static: true}
	n := c.Window + 16
	s := sim.NewCompiled(nl)
	zeros := make([]uint64, len(nl.Inputs))
	samples := make([][]uint64, 0, n)
	for t := 0; t < n; t++ {
		if err := s.SetInputs(zeros); err != nil {
			return Result{}, false
		}
		s.Settle()
		row := make([]uint64, len(nl.Nets))
		copy(row, s.Env())
		samples = append(samples, row)
		s.Step()
	}
	vs, nonVacuous := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, samples), nil)
	if len(vs) > 0 {
		return Result{}, false
	}
	if nonVacuous {
		return proven, true
	}
	// Uniform pseudorandom stimulus (no reset shaping: an arbitrary
	// antecedent is as likely to need an input high as low) from fixed
	// splitmix streams.
	for seed := uint64(1); seed <= 3; seed++ {
		rng := sm64(seed * 0x9E3779B97F4A7C15)
		s := sim.NewCompiled(nl)
		vals := make([]uint64, len(nl.Inputs))
		samples = samples[:0]
		for t := 0; t < 2*n; t++ {
			for k, idx := range nl.Inputs {
				vals[k] = rng.next() & nl.Nets[idx].Mask()
			}
			if err := s.SetInputs(vals); err != nil {
				return Result{}, false
			}
			s.Settle()
			row := make([]uint64, len(nl.Nets))
			copy(row, s.Env())
			samples = append(samples, row)
			s.Step()
		}
		vs, nonVacuous := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, samples), nil)
		if len(vs) > 0 {
			return Result{}, false
		}
		if nonVacuous {
			return proven, true
		}
	}
	return Result{}, false
}

// staticWitness drives the zero-stimulus trajectory (the concrete run
// the all-zero input vector induces from power-on) for a statically
// refuted property and checks the trace. If the violation concretizes,
// the trimmed trace becomes a replayable counter-example in exactly the
// searched-CEX format; if the antecedent never fires under zero
// stimulus, the claim stays abstract and the property falls through to
// the engine (which will find the violating stimulus if one is
// reachable).
func staticWitness(nl *verilog.Netlist, c *sva.Compiled) (Result, bool) {
	s := sim.NewCompiled(nl)
	zeros := make([]uint64, len(nl.Inputs))
	n := c.Window + 16
	samples := make([][]uint64, 0, n)
	for t := 0; t < n; t++ {
		if err := s.SetInputs(zeros); err != nil {
			return Result{}, false
		}
		s.Settle()
		row := make([]uint64, len(nl.Nets))
		copy(row, s.Env())
		samples = append(samples, row)
		s.Step()
	}
	vs, _ := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, samples), nil)
	if len(vs) == 0 {
		return Result{}, false
	}
	v := vs[0]
	trimmed := samples[:v.ViolationCycle+1]
	_, nonVacuous := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, trimmed), nil)
	inputs := make([][]uint64, len(trimmed))
	for i := range inputs {
		inputs[i] = make([]uint64, len(nl.Inputs))
	}
	return Result{
		Status: StatusCEX,
		CEX: &CEX{
			Inputs:         inputs,
			Sampled:        trimmed,
			ViolationCycle: v.ViolationCycle,
			AttemptCycle:   v.AttemptCycle,
		},
		NonVacuous: nonVacuous,
		Depth:      v.ViolationCycle,
		Static:     true,
	}, true
}
