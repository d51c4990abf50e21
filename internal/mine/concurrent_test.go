package mine_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"assertionbench/internal/bench"
	"assertionbench/internal/mine"
	"assertionbench/internal/verilog"
)

// TestBothConcurrentOnSharedNetlist mines cached netlists from four
// goroutines at once, as evaluation workers do: each mining context
// owns its trace and memo and takes an engine from the shared pool, and
// the goroutines mine the designs in different orders, so engines pass
// between designs and goroutines. Every result must equal the
// sequential one. Run it under -race.
func TestBothConcurrentOnSharedNetlist(t *testing.T) {
	names := map[string]bool{unevenRounds[0]: true, unevenRounds[1]: true}
	var nls []*verilog.Netlist
	for i, d := range bench.TestCorpus() {
		if i > 0 && !names[d.Name] {
			continue
		}
		nl, err := bench.Elaborate(d)
		if err != nil {
			t.Fatal(err)
		}
		nls = append(nls, nl)
	}
	opt := mine.Options{MaxAssertions: 6, FPV: experimentFPV}
	want := make([][]mine.Mined, len(nls))
	for i, nl := range nls {
		var err error
		if want[i], err = mine.Both(context.Background(), nl, opt); err != nil {
			t.Fatal(err)
		}
		if len(want[i]) == 0 {
			t.Fatalf("design %d: nothing mined", i)
		}
	}
	got := make([][][]mine.Mined, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([][]mine.Mined, len(nls))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range nls {
				i := (g + k) % len(nls)
				var err error
				if got[g][i], err = mine.Both(context.Background(), nls[i], opt); err != nil {
					errs[g] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for i := range nls {
			if !reflect.DeepEqual(got[g][i], want[i]) {
				t.Errorf("goroutine %d, design %d: result differs from the sequential one", g, i)
			}
		}
	}
}
