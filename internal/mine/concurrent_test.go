package mine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/mine"
)

// TestBothConcurrentOnSharedNetlist mines one cached netlist from four
// goroutines at once, as evaluation workers do: each mining context owns
// its trace, memo and engine, so every result equals the sequential one.
// Run it under -race.
func TestBothConcurrentOnSharedNetlist(t *testing.T) {
	d := bench.TestCorpus()[0]
	nl, err := bench.Elaborate(d)
	if err != nil {
		t.Fatal(err)
	}
	// The budget eval.ExperimentOptions mines its corpora with.
	opt := mine.Options{MaxAssertions: 6, FPV: fpv.Options{
		MaxProductStates: 1500, MaxInputBits: 6, MaxInputSamples: 8,
		RandomRuns: 8, RandomDepth: 32, Seed: 1,
	}}
	want, err := mine.Both(context.Background(), nl, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatalf("%s: nothing mined", d.Name)
	}
	got := make([][]mine.Mined, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = mine.Both(context.Background(), nl, opt)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: result differs from the sequential one", i)
		}
	}
}
