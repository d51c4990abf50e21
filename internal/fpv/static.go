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
// step a tautology, any explored path completes the antecedent. w holds
// the batch's witness runs.
func staticResult(nl *verilog.Netlist, c *sva.Compiled, w *witnesses) (Result, bool) {
	a := vstatic.For(nl)
	switch a.Classify(c) {
	case vstatic.PropVacuous:
		return Result{Status: StatusVacuous, Exhaustive: true, Static: true}, true
	case vstatic.PropProven:
		return Result{Status: StatusProven, NonVacuous: true, Exhaustive: true, Static: true}, true
	case vstatic.PropRefuted:
		return staticWitness(nl, c, w)
	case vstatic.PropHolds:
		return staticHoldsProof(nl, c, w)
	}
	return Result{}, false
}

// witnessSeeds is the number of fixed-seed random-stimulus witness runs
// that follow the zero-stimulus trajectory.
const witnessSeeds = 3

// witnesses holds one VerifyBatch call's concrete witness runs: run 0 is
// the zero-stimulus trajectory, runs 1..witnessSeeds the uniform random
// stimulus from fixed splitmix streams. The runs depend only on the
// netlist, so every statically classified property of the batch reads
// prefixes of the same runs: each run is simulated on first use and
// extended on demand to the longest prefix any property asked for, and
// each property checks exactly the prefix its window needs, which equals
// a fresh simulator's run of that length. Recorded rows are never
// written again. The zero value is ready to use; nothing in it outlives
// the batch.
type witnesses struct {
	runs [1 + witnessSeeds]*witnessRun
}

// witnessRun is one simulated stimulus run and its sampled rows so far.
type witnessRun struct {
	s      *sim.Simulator
	random bool
	rng    sm64
	vals   []uint64
	rows   [][]uint64
}

// prefix returns the first n sampled rows of run k, simulating further
// if the run is shorter; ok is false if the simulator rejects the
// stimulus. The returned slice is capacity-capped, so appending to it
// never reaches the shared rows.
func (w *witnesses) prefix(nl *verilog.Netlist, k, n int) ([][]uint64, bool) {
	r := w.runs[k]
	if r == nil {
		r = &witnessRun{s: sim.NewCompiled(nl), vals: make([]uint64, len(nl.Inputs))}
		if k > 0 {
			r.random = true
			r.rng = sm64(uint64(k) * 0x9E3779B97F4A7C15)
		}
		w.runs[k] = r
	}
	if more := n - len(r.rows); more > 0 {
		width := len(nl.Nets)
		block := make([]uint64, more*width)
		for t := 0; t < more; t++ {
			if r.random {
				// Uniform pseudorandom stimulus, no reset shaping: an
				// arbitrary antecedent is as likely to need an input high
				// as low.
				for i, idx := range nl.Inputs {
					r.vals[i] = r.rng.next() & nl.Nets[idx].Mask()
				}
			}
			if err := r.s.SetInputs(r.vals); err != nil {
				return nil, false
			}
			r.s.Settle()
			row := block[t*width : (t+1)*width : (t+1)*width]
			copy(row, r.s.Env())
			r.rows = append(r.rows, row)
			r.s.Step()
		}
	}
	return r.rows[:n:n], true
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
func staticHoldsProof(nl *verilog.Netlist, c *sva.Compiled, w *witnesses) (Result, bool) {
	n := c.Window + 16
	for k := range w.runs {
		length := n
		if k > 0 {
			length = 2 * n
		}
		rows, ok := w.prefix(nl, k, length)
		if !ok {
			return Result{}, false
		}
		vs, nonVacuous := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, rows), nil)
		if len(vs) > 0 {
			return Result{}, false
		}
		if nonVacuous {
			return Result{Status: StatusProven, NonVacuous: true, Exhaustive: true, Static: true}, true
		}
	}
	return Result{}, false
}

// staticWitness checks a statically refuted property on the
// zero-stimulus trajectory (the concrete run the all-zero input vector
// induces from power-on). If the violation concretizes, the trimmed
// trace becomes a replayable counter-example in exactly the
// searched-CEX format; if the antecedent never fires under zero
// stimulus, the claim stays abstract and the property falls through to
// the engine (which will find the violating stimulus if one is
// reachable).
func staticWitness(nl *verilog.Netlist, c *sva.Compiled, w *witnesses) (Result, bool) {
	samples, ok := w.prefix(nl, 0, c.Window+16)
	if !ok {
		return Result{}, false
	}
	vs, _ := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, samples), nil)
	if len(vs) == 0 {
		return Result{}, false
	}
	v := vs[0]
	trimmed := samples[: v.ViolationCycle+1 : v.ViolationCycle+1]
	_, nonVacuous := CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, trimmed), nil)
	inputs := make([][]uint64, len(trimmed))
	zeros := make([]uint64, len(trimmed)*len(nl.Inputs))
	for i := range inputs {
		inputs[i] = zeros[i*len(nl.Inputs) : (i+1)*len(nl.Inputs) : (i+1)*len(nl.Inputs)]
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
