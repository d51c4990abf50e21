package vstatic

import (
	"testing"

	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// refDUT: busy clears under reset and otherwise follows req; cnt is a
// free-running counter with synchronous clear. Neither register is
// globally constant, so the quick (invariant-only) pass cannot decide
// any reset-shaped property about them — the refined walk must.
const refDUT = `
module refdut(input clk, input rst, input req);
  reg busy;
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) busy <= 1'b0;
    else busy <= req;
  end
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else cnt <= cnt + 4'd1;
  end
endmodule
`

func classify(t *testing.T, src, top, prop string) PropClass {
	t.Helper()
	nl, err := verilog.ElaborateSource(src, top)
	if err != nil {
		t.Fatal(err)
	}
	a, err := sva.Parse(prop)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sva.Compile(a, nl)
	if err != nil {
		t.Fatal(err)
	}
	return For(nl).Classify(c)
}

func TestRefinedClassification(t *testing.T) {
	cases := []struct {
		prop string
		want PropClass
	}{
		// The canonical reset property: undecidable globally, decided
		// by assuming rst at offset 0 and stepping once.
		{"rst == 1 |=> busy == 0", PropHolds},
		{"rst == 1 |=> cnt == 0", PropHolds},
		// Refined refutation: after a reset cycle busy is known zero,
		// so the consequent is statically false on every attempt.
		{"rst == 1 |=> busy == 1", PropRefuted},
		// Jointly unsatisfiable antecedent atoms: each compare alone is
		// unknown, the meet of both is a contradiction.
		{"rst == 1 && rst == 0 |-> busy == 0", PropVacuous},
		// Ranged consequent, existential over ages: cnt is known zero
		// one cycle after reset, which lies inside ##[1:2].
		{"rst == 1 |-> ##[1:2] cnt == 0", PropHolds},
		// $past inside the window reads the refined offset-0 row.
		{"rst == 1 |=> $past(rst) == 1", PropHolds},
		// Multi-step antecedent: both offsets refine their own rows and
		// the consequent is judged two abstract steps in.
		{"rst == 1 ##1 rst == 1 |=> cnt == 0", PropHolds},
		// Wide-register refinement plus arithmetic wrap: cnt == 15
		// steps to 0 on both branches of the reset mux.
		{"cnt == 15 |=> cnt == 0", PropHolds},
		// Genuinely undecidable: busy follows the free input req.
		{"rst == 0 |=> busy == 1", PropUnknown},
	}
	for _, tc := range cases {
		if got := classify(t, refDUT, "refdut", tc.prop); got != tc.want {
			t.Errorf("%q: classified %v, want %v", tc.prop, got, tc.want)
		}
	}
}

func TestMeetLattice(t *testing.T) {
	if _, ok := meet(Const(5), Const(6)); ok {
		t.Error("meet of distinct constants must be empty")
	}
	m, ok := meet(Top(4), Const(9))
	if !ok || m != Const(9) {
		t.Errorf("meet(Top, 9) = %+v ok=%v, want Const(9)", m, ok)
	}
	// Partial knowledge intersects bitwise: {bit0=1} ∧ {bit1=0} pins
	// both bits and leaves the rest unknown.
	a := Bits{Known: 1, Val: 1}
	b := Bits{Known: 2, Val: 0}
	m, ok = meet(a, b)
	if !ok || m.Known != 3 || m.Val != 1 {
		t.Errorf("bitwise meet = %+v ok=%v", m, ok)
	}
	// Every value admitted by the meet is admitted by both operands.
	for v := uint64(0); v < 16; v++ {
		if m.Contains(v) && (!a.Contains(v) || !b.Contains(v)) {
			t.Errorf("meet admits %d which an operand excludes", v)
		}
		if a.Contains(v) && b.Contains(v) && !m.Contains(v) {
			t.Errorf("meet excludes %d admitted by both operands", v)
		}
	}
}

// TestRefinedWalkAdmitsCompletingAttempts: on concrete traces of the
// DUT, whenever an attempt of the property completes its antecedent,
// the sampled environments at the consequent ages must be admitted by
// the refined walk's abstract rows. This is the walk's soundness
// contract, checked directly rather than via verdicts.
func TestRefinedWalkAdmitsCompletingAttempts(t *testing.T) {
	nl, err := verilog.ElaborateSource(refDUT, "refdut")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sva.Parse("rst == 1 |=> busy == 0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := sva.Compile(a, nl)
	if err != nil {
		t.Fatal(err)
	}
	an := For(nl)
	// Rebuild the walk's environments exactly as classifyRefined does.
	w := &walker{nl: nl}
	envs := make([]aenv, 0, c.Window)
	for ti := 0; ti < c.Window; ti++ {
		env := make(aenv, len(nl.Nets))
		if ti == 0 {
			copy(env, an.Env)
		} else {
			copy(env, envs[ti-1])
			w.step(env)
			driveTop(env, nl)
			w.settle(env)
			meetInvariant(env, an.Env)
		}
		envs = append(envs, env)
		pe := an.walkEnv(envs, ti)
		if !an.assumeAnte(w, pe, env, c, ti) {
			t.Fatal("antecedent reported unsatisfiable on a satisfiable property")
		}
	}
	rst := nl.NetIndex("rst")
	busy := nl.NetIndex("busy")
	tr, err := sim.RandomTrace(nl, 40, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	for start := 0; start+c.Window <= tr.Len(); start++ {
		if tr.Value(start, rst) != 1 {
			continue // antecedent does not fire: attempt out of scope
		}
		for off := 0; off < c.Window; off++ {
			for _, net := range []int{rst, busy} {
				v := tr.Value(start+off, net)
				if !envs[off][net].Contains(v) {
					t.Fatalf("attempt@%d offset %d: net %s=%d not admitted by %+v",
						start, off, nl.Nets[net].Name, v, envs[off][net])
				}
			}
		}
	}
}
