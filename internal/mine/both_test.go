package mine_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// experimentFPV is the budget eval.ExperimentOptions mines its corpora
// with at seed 1.
var experimentFPV = fpv.Options{
	MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8,
	RandomRuns: 8, RandomDepth: 32, Seed: 1,
}

// unevenRounds are corpus designs on which, at MaxAssertions 6 and 10,
// one miner meets its quota in the first verification round and the
// other still needs more rounds, so Both's later rounds verify one
// miner's candidates alone.
var unevenRounds = []string{"mtx_trps_8x8_dpsram", "reg_int_sim", "edge_detect"}

// TestBothIsGoldMineThenHarm: Both, which verifies both miners'
// candidates in joint rounds on one context, returns exactly what
// GoldMine and Harm return when each builds its own, on the five
// training designs, on corpus designs whose miners need different
// numbers of rounds, and on the package's small designs, at the
// MaxAssertions the benchmark mines with and the experiment's budget.
func TestBothIsGoldMineThenHarm(t *testing.T) {
	type design struct {
		name   string
		nl     *verilog.Netlist
		uneven bool
	}
	var designs []design
	for _, src := range []struct{ src, top string }{{mine.CounterSrc, "counter"}, {mine.ArbiterSrc, "arb2"}} {
		nl, err := verilog.ElaborateSource(src.src, src.top)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{"test " + src.top, nl, false})
	}
	corpus := map[string]bench.Design{}
	for _, d := range bench.TestCorpus() {
		corpus[d.Name] = d
	}
	var ds []bench.Design
	ds = append(ds, bench.TrainDesigns()...)
	for _, name := range unevenRounds {
		d, ok := corpus[name]
		if !ok {
			t.Fatalf("corpus has no design %s", name)
		}
		ds = append(ds, d)
	}
	for i, d := range ds {
		nl, err := bench.Elaborate(d)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, design{d.Name, nl, i >= len(ds)-len(unevenRounds)})
	}
	for _, max := range []int{6, 10} {
		opt := mine.Options{MaxAssertions: max, FPV: experimentFPV}
		for _, d := range designs {
			name := fmt.Sprintf("%s/max%d", d.name, max)
			gm, err := mine.GoldMine(context.Background(), d.nl, opt)
			if err != nil {
				t.Fatal(err)
			}
			hm, err := mine.Harm(context.Background(), d.nl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(gm) > max || len(hm) > max {
				t.Errorf("%s: %d and %d assertions kept, cap %d", name, len(gm), len(hm), max)
			}
			both, err := mine.Both(context.Background(), d.nl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(both, append(gm, hm...)) {
				t.Errorf("%s: Both differs from GoldMine followed by Harm", name)
			}
			if !d.uneven {
				continue
			}
			gr, hr, err := mine.BothRounds(d.nl, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !(gr == 1 && len(gm) == max && hr > 1) && !(hr == 1 && len(hm) == max && gr > 1) {
				t.Errorf("test premise: on %s one miner meets its quota in round 1 and the other needs more; GoldMine kept %d in %d rounds, Harm %d in %d",
					name, len(gm), gr, len(hm), hr)
			}
		}
	}
}
