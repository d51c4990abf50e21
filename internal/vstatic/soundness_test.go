// Package vstatic_test holds the corpus-wide soundness property test.
// It lives in an external test package because it drives the analysis
// through the bench generator corpus, and bench imports vstatic
// transitively (bench -> fpv -> vstatic).
package vstatic_test

import (
	"math/rand"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/sim"
	"assertionbench/internal/verilog"
	"assertionbench/internal/vstatic"
)

// TestFixpointAdmitsConcreteStates is the global soundness property: for
// every generator-family design, every net value observed on any
// randomly stimulated simulation trace must be admitted by the abstract
// fixpoint. A violation here means the analysis claims a bit is
// constant when the hardware can flip it — exactly the bug class that
// would let the static pre-verification pass discharge a property
// unsoundly.
func TestFixpointAdmitsConcreteStates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		spec := bench.RandomFuzzSpec(rng)
		d := spec.Build()
		file, err := verilog.Parse(d.Source)
		if err != nil {
			t.Fatalf("%s: parse: %v", spec, err)
		}
		nl, err := verilog.Elaborate(file, d.Name, nil)
		if err != nil {
			t.Fatalf("%s: elaborate: %v", spec, err)
		}
		a := vstatic.For(nl)
		if len(a.Env) != len(nl.Nets) {
			t.Fatalf("%s: fixpoint has %d entries for %d nets", spec, len(a.Env), len(nl.Nets))
		}
		// Two stimulus regimes: free-running from reset-state zero, and a
		// warm-up with reset-like inputs held (the abstract semantics
		// must cover both since it drives all inputs to Top).
		for _, resetCycles := range []int{0, 4} {
			tr, err := sim.RandomTrace(nl, 48, resetCycles, int64(i*2+resetCycles))
			if err != nil {
				t.Fatalf("%s: simulate: %v", spec, err)
			}
			for c := 0; c < len(tr.Cycles); c++ {
				for n := range nl.Nets {
					v := tr.Value(c, n)
					if !a.Env[n].Contains(v) {
						t.Fatalf("%s: net %s = %#x at cycle %d (reset warm-up %d) is outside the abstract fixpoint %+v",
							spec, nl.Nets[n].Name, v, c, resetCycles, a.Env[n])
					}
				}
			}
		}
	}
}

// TestAnalysisIsMemoized pins the For contract: repeated calls on the
// same netlist return the identical analysis (the netlist-attached
// cache), so per-property consumers never pay the fixpoint twice.
func TestAnalysisIsMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := bench.RandomFuzzSpec(rng)
	d := spec.Build()
	file, err := verilog.Parse(d.Source)
	if err != nil {
		t.Fatal(err)
	}
	nl, err := verilog.Elaborate(file, d.Name, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := vstatic.For(nl), vstatic.For(nl); a != b {
		t.Fatal("For(nl) is not memoized on the netlist")
	}
}
