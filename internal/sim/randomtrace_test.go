package sim_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/sim"
	"assertionbench/internal/verilog"
)

// interpTrace is RandomTrace's reference: the interpreter driven cycle by
// cycle with a fresh input vector from RandomInputs each cycle.
func interpTrace(nl *verilog.Netlist, cycles, resetCycles int, seed int64) (*sim.Trace, error) {
	rng := rand.New(rand.NewSource(seed))
	s := sim.New(nl)
	tr := &sim.Trace{Netlist: nl}
	isReset := func(name string) bool {
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		name = strings.ToLower(name)
		return strings.Contains(name, "rst") || strings.Contains(name, "reset") || strings.Contains(name, "clear")
	}
	for i := 0; i < resetCycles; i++ {
		vals := sim.RandomInputs(nl, rng)
		for k, idx := range nl.Inputs {
			if isReset(nl.Nets[idx].Name) {
				vals[k] = 1 & nl.Nets[idx].Mask()
			}
		}
		if err := s.StepWith(vals); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cycles; i++ {
		vals := sim.RandomInputs(nl, rng)
		for k, idx := range nl.Inputs {
			if isReset(nl.Nets[idx].Name) {
				if rng.Intn(32) == 0 {
					vals[k] = 1 & nl.Nets[idx].Mask()
				} else {
					vals[k] = 0
				}
			}
		}
		if err := s.SetInputs(vals); err != nil {
			return nil, err
		}
		s.Settle()
		tr.Cycles = append(tr.Cycles, slices.Clone(s.Env()))
		s.Step()
	}
	return tr, nil
}

// cyclicSrc has a combinational loop, so both backends settle it by
// bounded fixpoint relaxation.
const cyclicSrc = `
module loopy(input clk, input rst, input a, input b, output x, output y);
  reg q;
  assign x = y | a;
  assign y = (x & b) ^ q;
  always @(posedge clk)
    if (rst) q <= 1'b0;
    else q <= x;
endmodule
`

// TestRandomTraceMatchesInterpreter: RandomTrace records exactly the
// trace the interpreter loop records, on every corpus and training
// design and on a cyclic one, at several seeds and reset lengths.
func TestRandomTraceMatchesInterpreter(t *testing.T) {
	designs := append(bench.TestCorpus(), bench.TrainDesigns()...)
	designs = append(designs, bench.Design{Name: "loopy", Source: cyclicSrc})
	for _, d := range designs {
		nl, err := verilog.ElaborateSource(d.Source, d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if d.Name == "loopy" && nl.CombOrder != nil {
			t.Fatal("loopy is not cyclic")
		}
		for _, run := range []struct {
			cycles, reset int
			seed          int64
		}{{24, 0, 1}, {24, 2, 7}, {40, 5, int64(len(d.Name))}, {0, 2, 3}, {-1, 1, 3}} {
			got, err := sim.RandomTrace(nl, run.cycles, run.reset, run.seed)
			if err != nil {
				t.Fatalf("%s: %v", d.Name, err)
			}
			want, err := interpTrace(nl, run.cycles, run.reset, run.seed)
			if err != nil {
				t.Fatalf("%s: reference: %v", d.Name, err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%s %+v: %d cycles, reference %d", d.Name, run, got.Len(), want.Len())
			}
			for c := range want.Cycles {
				if !slices.Equal(got.Cycles[c], want.Cycles[c]) {
					t.Fatalf("%s %+v: cycle %d differs from the interpreter's", d.Name, run, c)
				}
			}
		}
	}
}
