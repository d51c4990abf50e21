package fpv

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"assertionbench/internal/sva"
)

// witnessSrc counts up from power-on under zero stimulus, so an
// antecedent cnt == K first fires at cycle K of the zero-stimulus run,
// and a random run, which asserts rst about every other cycle, almost
// never lets cnt climb far. z powers on zero and can only stay there.
const witnessSrc = `
module witdut(input clk, input rst, input in);
  reg [7:0] cnt;
  reg z;
  always @(posedge clk)
    if (rst) cnt <= 8'd0;
    else cnt <= cnt + 8'd1;
  always @(posedge clk) z <= z & in;
endmodule
`

// witnessProps mixes properties the static pass refutes (z == 1) and
// holds (z == 0) at delays 0..20, so windows 1..21. With the zero run
// checked over window+16 rows, cnt == K fires inside a property's prefix
// only for small K: the rest fall through to the search. The in == 1
// properties need a random run, and the two cnt == 30 properties at
// window 1 would be discharged statically if they were handed the rows
// a window-21 property had the zero run extended to.
func witnessProps() []string {
	var props []string
	delay := func(d int) string {
		if d == 0 {
			return ""
		}
		return fmt.Sprintf("##%d ", d)
	}
	for d := 0; d <= 20; d++ {
		props = append(props,
			fmt.Sprintf("cnt == %d |-> %sz == 1", (d*5)%37, delay(d)),
			fmt.Sprintf("cnt == %d |-> %sz == 0", (d*11)%41, delay(d)))
		if d%4 == 0 {
			props = append(props, fmt.Sprintf("in == 1 |-> %sz == 0", delay(d)))
		}
	}
	return append(props, "cnt == 30 |-> z == 1", "cnt == 30 |-> z == 0")
}

// TestBatchSharesWitnessRuns: one batch reads every static property's
// witnesses from shared runs, in ascending and in descending window
// order, and each property still gets its batch-of-one result, its
// counter-example's stimulus and sampled rows included.
func TestBatchSharesWitnessRuns(t *testing.T) {
	ctx := context.Background()
	nl := elab(t, witnessSrc, "witdut")
	cs := compileAll(t, nl, witnessProps())
	want := make(map[*sva.Compiled]Result, len(cs))
	var staticCEX, staticProof, randomProof, searched int
	for _, c := range cs {
		r := NewEngine().VerifyBatch(ctx, nl, []*sva.Compiled{c}, Options{})[0]
		want[c] = r
		switch {
		case !r.Static:
			searched++
		case r.Status == StatusCEX:
			staticCEX++
		case c.Assertion.String()[:2] == "in":
			randomProof++
		default:
			staticProof++
		}
	}
	if staticCEX == 0 || staticProof == 0 || randomProof == 0 || searched == 0 {
		t.Fatalf("want every kind of outcome, got %d static CEXs, %d zero-run proofs, %d random-run proofs, %d searched",
			staticCEX, staticProof, randomProof, searched)
	}
	t.Logf("%d properties: %d static CEXs, %d zero-run proofs, %d random-run proofs, %d searched",
		len(cs), staticCEX, staticProof, randomProof, searched)
	lo, hi := cs[0].Window, cs[0].Window
	for _, c := range cs {
		lo, hi = min(lo, c.Window), max(hi, c.Window)
	}
	if lo != 1 || hi < 20 {
		t.Fatalf("windows span %d..%d, want 1 to at least 20", lo, hi)
	}
	for _, order := range []string{"ascending", "descending"} {
		batch := slices.Clone(cs)
		slices.SortStableFunc(batch, func(a, b *sva.Compiled) int {
			if order == "ascending" {
				return a.Window - b.Window
			}
			return b.Window - a.Window
		})
		got := NewEngine().VerifyBatch(ctx, nl, batch, Options{})
		for i, c := range batch {
			w := want[c]
			if d := sameResult(got[i], w); d != "" {
				t.Fatalf("%s: %q: batch and batch of one differ: %s", order, c.Assertion, d)
			}
			if w.CEX != nil && !slices.EqualFunc(got[i].CEX.Sampled, w.CEX.Sampled, slices.Equal) {
				t.Fatalf("%s: %q: counter-example rows differ from the batch of one's", order, c.Assertion)
			}
		}
	}
}
