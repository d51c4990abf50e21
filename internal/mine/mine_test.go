package mine

import (
	"context"
	"strings"
	"testing"

	"assertionbench/internal/fpv"
	"assertionbench/internal/verilog"
)

const counterSrc = `
module counter(clk, rst, en, count);
input clk, rst, en;
output [3:0] count;
reg [3:0] count;
always @(posedge clk or posedge rst)
  if (rst) count <= 4'b0;
  else if (en) count <= count + 1;
endmodule
`

const arbiterSrc = `
module arb2(clk, rst, req1, req2, gnt1, gnt2);
input clk, rst, req1, req2;
output gnt1, gnt2;
reg gnt_, gnt1, gnt2;
always @(posedge clk or posedge rst)
  if (rst) gnt_ <= 0;
  else gnt_ <= gnt1;
always @(*)
  if (gnt_) begin
    gnt1 = req1 & req2;
    gnt2 = req2;
  end else begin
    gnt1 = req1;
    gnt2 = req2 & ~req1;
  end
endmodule
`

func elab(t *testing.T, src, top string) *verilog.Netlist {
	t.Helper()
	nl, err := verilog.ElaborateSource(src, top)
	if err != nil {
		t.Fatalf("elaborate: %v", err)
	}
	return nl
}

func TestGoldMineCounter(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	mined, err := GoldMine(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("GoldMine found nothing on the counter")
	}
	for _, m := range mined {
		if !m.Result.Status.IsPass() {
			t.Errorf("miner emitted unproven assertion %q (%v)", m.Assertion, m.Result.Status)
		}
		if m.Support < 4 {
			t.Errorf("assertion %q kept with support %d", m.Assertion, m.Support)
		}
		// Re-verify independently: mined output must be sound.
		r := fpv.Verify(context.Background(), nl, m.Assertion, fpv.Options{})
		if !r.Status.IsPass() {
			t.Errorf("re-verification of %q failed: %v", m.Assertion, r.Status)
		}
	}
}

func TestGoldMineArbiter(t *testing.T) {
	nl := elab(t, arbiterSrc, "arb2")
	mined, err := GoldMine(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("GoldMine found nothing on the arbiter")
	}
	// Ranking must be non-increasing.
	for i := 1; i < len(mined); i++ {
		if mined[i].Rank > mined[i-1].Rank+1e-12 {
			t.Errorf("ranking not sorted at %d: %f > %f", i, mined[i].Rank, mined[i-1].Rank)
		}
	}
}

func TestHarmCounter(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	mined, err := Harm(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) == 0 {
		t.Fatal("HARM found nothing on the counter")
	}
	// rst==1 |=> count==0 (or an equivalent) should be among the hints.
	found := false
	for _, m := range mined {
		if m.Assertion.String() == "rst == 1'h1 |=> count == 4'h0" {
			found = true
		}
	}
	if !found {
		var got []string
		for _, m := range mined {
			got = append(got, m.Assertion.String())
		}
		t.Errorf("expected the reset hint among mined assertions, got %v", got)
	}
}

func TestHarmEmitsMultiCycle(t *testing.T) {
	nl := elab(t, arbiterSrc, "arb2")
	mined, err := Harm(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	overlapped, nonOverlapped := 0, 0
	for _, m := range mined {
		if m.Assertion.NonOverlap || m.Assertion.WindowLength() > 1 {
			nonOverlapped++
		} else {
			overlapped++
		}
	}
	// The benchmark needs both operator kinds (Sec. III).
	if overlapped == 0 || nonOverlapped == 0 {
		t.Errorf("want both overlapped and non-overlapped assertions, got %d/%d", overlapped, nonOverlapped)
	}
}

func TestMinersDeterministic(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	a, err := GoldMine(context.Background(), nl, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GoldMine(context.Background(), nl, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Assertion.String() != b[i].Assertion.String() {
			t.Fatalf("same seed, different assertion %d: %q vs %q", i, a[i].Assertion, b[i].Assertion)
		}
	}
}

func TestRankPrefersSimpleHighCoverage(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	mined, err := Harm(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mined) < 2 {
		t.Skip("not enough mined assertions to compare")
	}
	Rank(mined)
	top := mined[0]
	for _, m := range mined[1:] {
		if m.Coverage > top.Coverage && m.Complexity < top.Complexity {
			t.Errorf("rank inversion: %q (cov %.3f cx %d) ranked below %q (cov %.3f cx %d)",
				m.Assertion, m.Coverage, m.Complexity, top.Assertion, top.Coverage, top.Complexity)
		}
	}
}

func TestComplexityCounts(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	mined, err := GoldMine(context.Background(), nl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range mined {
		if m.Complexity < 2 {
			t.Errorf("complexity of %q = %d, want >= 2 (>=1 atom + window)", m.Assertion, m.Complexity)
		}
	}
}

// TestNegativeCountsRejected: no count below zero means anything, so
// every miner returns an error instead of panicking or quietly returning
// a truncated set.
func TestNegativeCountsRejected(t *testing.T) {
	nl := elab(t, counterSrc, "counter")
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"TraceCycles", Options{TraceCycles: -1}},
		{"MinSupport", Options{MinSupport: -1}},
		{"MaxPerTarget", Options{MaxPerTarget: -1}},
		{"MaxAssertions", Options{MaxAssertions: -1}},
		{"MaxTreeDepth", Options{MaxTreeDepth: -1}},
	} {
		for _, m := range []struct {
			name string
			fn   minerFunc
		}{{"goldmine", GoldMine}, {"harm", Harm}, {"security", Security}, {"both", Both}} {
			got, err := m.fn(context.Background(), nl, tc.opt)
			if err == nil || !strings.Contains(err.Error(), tc.name) {
				t.Errorf("%s with negative %s: %d results, err %v", m.name, tc.name, len(got), err)
			}
		}
	}
}
