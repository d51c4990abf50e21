package vstatic_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
	"assertionbench/internal/vstatic"
)

// compareWalks checks the walker against the reference walk on one
// netlist: the same fixpoint environment, and the same class for every
// property. It returns the number of properties compared.
func compareWalks(t *testing.T, name string, nl *verilog.Netlist, props []*sva.Assertion) int {
	t.Helper()
	got, want := vstatic.Analyze(nl), vstatic.ReferenceAnalyze(nl)
	if got.Cyclic != want.Cyclic || !slices.Equal(got.Env, want.Env) {
		for i := range want.Env {
			if i < len(got.Env) && got.Env[i] != want.Env[i] {
				t.Fatalf("%s: net %s: walker fixpoint %+v, reference %+v", name, nl.Nets[i].Name, got.Env[i], want.Env[i])
			}
		}
		t.Fatalf("%s: walker fixpoint (cyclic %v, %d nets) differs from the reference (cyclic %v, %d nets)",
			name, got.Cyclic, len(got.Env), want.Cyclic, len(want.Env))
	}
	n := 0
	for _, a := range props {
		c, err := sva.Compile(a, nl)
		if err != nil {
			continue
		}
		if g, w := got.Classify(c), want.ReferenceClassify(c); g != w {
			t.Fatalf("%s: %q: walker classifies %v, reference %v", name, a, g, w)
		}
		n++
	}
	return n
}

// TestAbstractWalkMatchesReference: on every corpus and training design,
// the walker reaches the reference walk's fixpoint and classifies every
// assertion mining produces for the design as the reference does. Mining
// runs on the experiment's budget, the one the fine-tuning corpus is
// mined with.
func TestAbstractWalkMatchesReference(t *testing.T) {
	ctx := context.Background()
	opt := mine.Options{Seed: 1, FPV: fpv.Options{
		MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8, RandomRuns: 8, RandomDepth: 32, Seed: 1,
	}}
	designs := append(bench.TestCorpus(), bench.TrainDesigns()...)
	props := 0
	for _, d := range designs {
		nl, err := verilog.ElaborateSource(d.Source, d.Name)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		mined, err := mine.Both(ctx, nl, opt)
		if err != nil {
			t.Fatalf("%s: mine: %v", d.Name, err)
		}
		as := make([]*sva.Assertion, len(mined))
		for i, m := range mined {
			as[i] = m.Assertion
		}
		props += compareWalks(t, d.Name, nl, as)
	}
	nl, err := verilog.ElaborateSource(partialCase, "partialcase")
	if err != nil {
		t.Fatal(err)
	}
	var as []*sva.Assertion
	for _, p := range partialCaseProps {
		a, err := sva.Parse(p)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	props += compareWalks(t, "partialcase", nl, as)
	if props < len(designs) {
		t.Fatalf("only %d mined properties over %d designs", props, len(designs))
	}
	t.Logf("%d designs, %d mined properties", len(designs), props)
}

// partialCase has a case with no default over a free input: every arm
// writes r, and a select value no arm matches leaves it alone. Classify
// judges r's top bit after one step from a state where it is clear, so
// the join must keep the arm that writes nothing (the missing default)
// apart from the arms that write.
const partialCase = `
module partialcase(input clk, input [2:0] sel);
  reg [7:0] r;
  always @(posedge clk)
    case (sel)
      3'd0: r <= 8'h80;
      3'd1: r <= 8'h81;
      3'd2: r <= 8'h82;
      3'd3: r <= 8'h83;
      3'd4: r <= 8'h84;
      3'd5: r <= 8'h85;
    endcase
endmodule
`

var partialCaseProps = []string{
	"r == 5 |=> r[7] == 1",
	"r == 5 |=> r >= 128",
	"r == 133 |=> r[7] == 1",
	"sel == 7 |=> r == $past(r)",
}

// caseHeavy is a design whose sequential and combinational processes
// each branch on a free input over arms case arms.
func caseHeavy(arms int) string {
	var sb strings.Builder
	sb.WriteString("module caseheavy(input clk, input rst, input [6:0] sel, input [7:0] d);\n")
	sb.WriteString("  reg [7:0] r;\n  reg [7:0] q;\n  reg [7:0] m;\n")
	for _, head := range []string{"always @(posedge clk)", "always @(*)"} {
		sb.WriteString("  " + head + "\n    case (sel)\n")
		for i := 0; i < arms; i++ {
			if head == "always @(*)" {
				fmt.Fprintf(&sb, "      7'd%d: m = d + 8'd%d;\n", i, i)
			} else {
				fmt.Fprintf(&sb, "      7'd%d: r <= d ^ 8'd%d;\n", i, i)
			}
		}
		if head == "always @(*)" {
			sb.WriteString("      default: m = 8'd0;\n    endcase\n")
		} else {
			sb.WriteString("      default: r <= m;\n    endcase\n")
		}
	}
	sb.WriteString("  always @(posedge clk)\n    if (rst) q <= 8'd0;\n    else q <= r;\nendmodule\n")
	return sb.String()
}

// TestClassifyAllocsFlatInCaseArms: the refined walk's allocations do
// not grow with the number of case arms it forks over.
func TestClassifyAllocsFlatInCaseArms(t *testing.T) {
	allocs := func(arms int) float64 {
		nl, err := verilog.ElaborateSource(caseHeavy(arms), "caseheavy")
		if err != nil {
			t.Fatal(err)
		}
		a, err := sva.Parse("rst == 1 ##1 rst == 0 |=> q == 0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			t.Fatal(err)
		}
		an := vstatic.For(nl)
		if got := an.Classify(c); got != vstatic.PropUnknown {
			t.Fatalf("%d arms: classified %v; the test wants a walk that cannot decide", arms, got)
		}
		return testing.AllocsPerRun(20, func() { an.Classify(c) })
	}
	few, many := allocs(4), allocs(64)
	t.Logf("Classify allocations: %.0f over 4 case arms, %.0f over 64", few, many)
	if many > few {
		t.Fatalf("Classify allocates %.0f times over 64 case arms, %.0f over 4", many, few)
	}
}

// FuzzAbstractWalk compares the walker with the reference walk on
// random designs and random properties over their nets.
func FuzzAbstractWalk(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		spec := bench.RandomFuzzSpec(rng)
		d := spec.Build()
		nl, err := verilog.ElaborateSource(d.Source, d.Name)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		var props []*sva.Assertion
		for i := 0; i < 24; i++ {
			a, err := sva.Parse(randomProp(rng, nl))
			if err == nil {
				props = append(props, a)
			}
		}
		compareWalks(t, spec.String(), nl, props)
	})
}

// randomProp draws an implication over the design's nets: one or two
// antecedent atoms a few cycles apart, then a consequent at a fixed or
// ranged delay.
func randomProp(rng *rand.Rand, nl *verilog.Netlist) string {
	ante := randomAtom(rng, nl)
	if rng.Intn(3) == 0 {
		ante += fmt.Sprintf(" ##%d %s", 1+rng.Intn(3), randomAtom(rng, nl))
	}
	op := "|->"
	if rng.Intn(2) == 0 {
		op = "|=>"
	}
	cons := randomAtom(rng, nl)
	switch rng.Intn(4) {
	case 0:
		cons = fmt.Sprintf("##%d %s", 1+rng.Intn(4), cons)
	case 1:
		lo := rng.Intn(3)
		cons = fmt.Sprintf("##[%d:%d] %s", lo, lo+1+rng.Intn(3), cons)
	}
	return fmt.Sprintf("%s %s %s", ante, op, cons)
}

func randomAtom(rng *rand.Rand, nl *verilog.Netlist) string {
	n := nl.Nets[rng.Intn(len(nl.Nets))]
	v := rng.Uint64() & n.Mask()
	switch rng.Intn(6) {
	case 0:
		v = 0
	case 1:
		v = 1 & n.Mask()
	case 2:
		v = n.Mask()
	}
	switch rng.Intn(7) {
	case 0:
		return fmt.Sprintf("%s != %d", n.Name, v)
	case 1:
		return fmt.Sprintf("%s <= %d", n.Name, v)
	case 2:
		return fmt.Sprintf("$past(%s) == %d", n.Name, v)
	case 3:
		return fmt.Sprintf("$stable(%s)", n.Name)
	case 4:
		m := nl.Nets[rng.Intn(len(nl.Nets))]
		return fmt.Sprintf("%s == %d && %s == %d", n.Name, v, m.Name, rng.Uint64()&m.Mask())
	}
	return fmt.Sprintf("%s == %d", n.Name, v)
}
