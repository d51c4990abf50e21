package eval

import (
	"context"
	"reflect"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// TestSchedIndexHookBreaksIdentity proves the oracle-3 mutation seam is
// observable: misrouting two reorder-buffer slots must make the
// parallel stream differ from the sequential reference (and must not
// wedge the emitter — the swap is a bijection, so every slot fills).
func TestSchedIndexHookBreaksIdentity(t *testing.T) {
	e := testExperiment(t, 6)
	gen := NewModelGenerator(llm.GPT35())
	base := RunOptions{Shots: 1, UseCorrector: true, Seed: 3}

	seqOpt := base
	seqOpt.Workers = 1
	bench.DefaultElab.Purge()
	ref, err := Run(context.Background(), gen, e.ICL, e.Corpus, seqOpt)
	if err != nil {
		t.Fatal(err)
	}

	SchedIndexHook = func(i int) int {
		switch i {
		case 0:
			return 1
		case 1:
			return 0
		}
		return i
	}
	defer func() { SchedIndexHook = nil }()

	opt := base
	opt.Workers = 4
	bench.DefaultElab.Purge()
	got, err := Run(context.Background(), gen, e.ICL, e.Corpus, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Designs) != len(ref.Designs) {
		t.Fatalf("mutated run yielded %d outcomes, want %d", len(got.Designs), len(ref.Designs))
	}
	if reflect.DeepEqual(ref, got) {
		t.Fatal("index-swap mutation was not observable in the stream")
	}
}

// TestSchedulerPlans pins the dispatch plan of a fresh run (subtest
// cost, named for the static-cost order) and of a resumed run: every
// design the resume did not serve appears exactly once, no served design
// appears, and the order is descending static cost with ascending corpus
// index on ties.
func TestSchedulerPlans(t *testing.T) {
	e := testExperiment(t, 10)
	// A renamed copy of design 0 ties with it on cost; a design that fails
	// to elaborate costs 1.
	designs := append([]bench.Design{}, e.Corpus...)
	dup := designs[0]
	dup.Name += "_copy"
	designs = append(designs, dup, bench.Design{Name: "broken", Source: "module broken("})
	for _, tc := range []struct {
		name string
		skip map[int]bool
	}{{"cost", nil}, {"resumed", map[int]bool{0: true, 3: true, 7: true}}} {
		t.Run(tc.name, func(t *testing.T) {
			order := dispatchOrder(context.Background(), designs, tc.skip)
			seen := make(map[int]bool)
			for _, i := range order {
				if tc.skip[i] {
					t.Errorf("resume-served design %d is planned", i)
				}
				if seen[i] {
					t.Errorf("design %d is planned twice", i)
				}
				seen[i] = true
			}
			if want := len(designs) - len(tc.skip); len(seen) != want {
				t.Fatalf("plan covers %d designs, want %d", len(seen), want)
			}
			for k := 1; k < len(order); k++ {
				a, b := order[k-1], order[k]
				ca, cb := predictCost(designs[a]), predictCost(designs[b])
				if ca < cb || ca == cb && a > b {
					t.Fatalf("plan position %d: design %d (cost %d) runs before design %d (cost %d)", k, a, ca, b, cb)
				}
			}
		})
	}
}
