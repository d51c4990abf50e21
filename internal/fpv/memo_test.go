package fpv

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"assertionbench/internal/verilog"
)

// memoTexts mixes chunkySrc properties that hold, fail or stay open
// under a bounded budget with a syntax error, a semantic error and an
// in-call duplicate.
var memoTexts = []string{
	"rst == 1 |=> x == 0 && y == 0",
	"rst == 0 |-> x < 100",
	"rst == 0 |-> y < 40",
	"x == |-> y", // syntax error
	"rst == 0 && a == 1 |=> x == $past(x) + 1",
	"nosuch == 1 |-> x == 0", // semantic error
	"rst == 0 |-> x < 100",
	"1 |-> x + y < 300",
	"rst == 0 |-> x != 250", // refuted only deep into the hunt
}

// sameResult is diffResult plus the fields it leaves out: the static
// flag and the error text.
func sameResult(a, b Result) string {
	if d := diffResult(a, b); d != "" {
		return d
	}
	if a.Static != b.Static {
		return fmt.Sprintf("static %v vs %v", a.Static, b.Static)
	}
	if (a.Err == nil) != (b.Err == nil) || (a.Err != nil && a.Err.Error() != b.Err.Error()) {
		return fmt.Sprintf("err %v vs %v", a.Err, b.Err)
	}
	return ""
}

// verdictEntries returns the memoized verdicts c holds, checking that
// its LRU list and its verdict map agree.
func verdictEntries(t *testing.T, c *GraphCache) []*cacheEntry {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*cacheEntry
	graphs := 0
	for e := c.head; e != nil; e = e.next {
		if e.g != nil {
			graphs++
			continue
		}
		if c.verdicts[e.vkey] != e {
			t.Fatalf("verdict entry %q is on the LRU list but not in the verdict map", e.vkey.src)
		}
		out = append(out, e)
	}
	if len(out) != len(c.verdicts) || graphs != len(c.m) {
		t.Fatalf("LRU list holds %d verdicts and %d graphs, the maps %d and %d", len(out), graphs, len(c.verdicts), len(c.m))
	}
	return out
}

// TestVerdictMemoKeyIsComplete runs the same texts on one shared cache
// with each Options field changed in turn, and on a second netlist: every
// result must equal a cache-less engine's, so no option and no design
// can be answered from another's entry.
func TestVerdictMemoKeyIsComplete(t *testing.T) {
	nl := elab(t, chunkySrc, "chunky")
	other := elab(t, strings.Replace(chunkySrc, "x <= x + a;", "x <= x + a + 8'd3;", 1), "chunky")
	base := chunkyOptions(200, 4)
	variants := []struct {
		name string
		mod  func(*Options)
		// same marks a field whose change leaves every result identical
		// by construction (a reference switch dverify pins bit for bit).
		same bool
	}{
		{"base", func(*Options) {}, true},
		{"MaxProductStates", func(o *Options) { o.MaxProductStates = 2000 }, false},
		{"MaxInputBits", func(o *Options) { o.MaxInputBits = 5 }, false},
		{"MaxInputSamples", func(o *Options) { o.MaxInputSamples = 2 }, false},
		{"RandomRuns", func(o *Options) { o.RandomRuns = 40 }, false},
		{"RandomDepth", func(o *Options) { o.RandomDepth = 8 }, false},
		{"Seed", func(o *Options) { o.Seed = 6 }, false},
		{"Interp", func(o *Options) { o.Interp = true }, true},
		{"FullDesign", func(o *Options) { o.FullDesign = true }, false},
		{"NoStatic", func(o *Options) { o.NoStatic = false }, false},
	}
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	baseRef := NewEngine().VerifyAll(context.Background(), nl, memoTexts, base)
	e.VerifyAll(context.Background(), nl, memoTexts, base)
	for _, v := range variants {
		opt := base
		v.mod(&opt)
		want := NewEngine().VerifyAll(context.Background(), nl, memoTexts, opt)
		moved := false
		for i := range memoTexts {
			moved = moved || sameResult(want[i], baseRef[i]) != ""
		}
		if moved == v.same {
			t.Errorf("test premise: changing %s moves some result = %v, want %v", v.name, moved, !v.same)
		}
		// Twice: the first call may be answered from the base entries, the
		// second from the variant's own.
		for pass := 0; pass < 2; pass++ {
			got := e.VerifyAll(context.Background(), nl, memoTexts, opt)
			for i, src := range memoTexts {
				if d := sameResult(got[i], want[i]); d != "" {
					t.Errorf("%s pass %d, %q: memoized result differs from a cache-less engine: %s", v.name, pass, src, d)
				}
			}
		}
	}
	want := NewEngine().VerifyAll(context.Background(), other, memoTexts, base)
	moved := false
	for i := range memoTexts {
		moved = moved || sameResult(want[i], baseRef[i]) != ""
	}
	if !moved {
		t.Error("test premise: the second netlist moves no result")
	}
	got := e.VerifyAll(context.Background(), other, memoTexts, base)
	for i, src := range memoTexts {
		if d := sameResult(got[i], want[i]); d != "" {
			t.Errorf("second netlist, %q: memoized result differs from a cache-less engine: %s", src, d)
		}
	}
	// Options are keyed after withDefaults: the zero value and the
	// explicit defaults share their entries.
	n := len(verdictEntries(t, &cache))
	e.VerifyAll(context.Background(), nl, memoTexts, Options{})
	m := len(verdictEntries(t, &cache))
	e.VerifyAll(context.Background(), nl, memoTexts, Options{}.withDefaults())
	if k := len(verdictEntries(t, &cache)); m == n || k != m {
		t.Errorf("verdict entries %d, then %d after zero options, then %d after explicit defaults; want growth, then none", n, m, k)
	}
}

// deadlineCtx reports an expired deadline after its Err method has been
// consulted n times: a deterministic mid-batch budget expiry.
type deadlineCtx struct {
	context.Context
	n int
}

func (c *deadlineCtx) Err() error {
	if c.n > 0 {
		c.n--
		return nil
	}
	return context.DeadlineExceeded
}

// TestVerdictMemoSkipsInterruptedCalls: a call whose deadline expires
// mid-batch, at every polling point, or whose ctx is canceled, memoizes
// nothing; the same call afterwards returns searched verdicts equal to a
// cache-less engine's.
func TestVerdictMemoSkipsInterruptedCalls(t *testing.T) {
	nl := elab(t, chunkySrc, "chunky")
	opt := chunkyOptions(200, 4)
	want := NewEngine().VerifyAll(context.Background(), nl, memoTexts, opt)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	ctxs := []context.Context{canceled}
	for n := 0; n < 60; n += 3 {
		ctxs = append(ctxs, &deadlineCtx{Context: context.Background(), n: n})
	}
	interrupted := 0
	for k, ctx := range ctxs {
		var cache GraphCache
		e := NewEngine()
		e.Graphs = &cache
		cut := false
		for _, r := range e.VerifyAll(ctx, nl, memoTexts, opt) {
			cut = cut || r.Status == StatusUnknown || (r.Status == StatusError && errors.Is(r.Err, context.Canceled))
		}
		if !cut {
			continue
		}
		interrupted++
		if held := verdictEntries(t, &cache); len(held) != 0 {
			t.Errorf("context %d: an interrupted call memoized %d verdicts", k, len(held))
		}
		got := e.VerifyAll(context.Background(), nl, memoTexts, opt)
		for i, src := range memoTexts {
			if d := sameResult(got[i], want[i]); d != "" {
				t.Errorf("context %d, %q: the rerun differs from a cache-less engine: %s", k, src, d)
			}
		}
	}
	if interrupted < 5 {
		t.Fatalf("test premise: only %d of %d contexts interrupted the call", interrupted, len(ctxs))
	}
	// A call whose ctx is already done skips the memo: memoized texts come
	// back interrupted, as from a cache-less engine.
	var cache GraphCache
	e := NewEngine()
	e.Graphs = &cache
	e.VerifyAll(context.Background(), nl, memoTexts, opt)
	for _, done := range []context.Context{canceled, &deadlineCtx{Context: context.Background()}} {
		got := e.VerifyAll(done, nl, memoTexts, opt)
		want := NewEngine().VerifyAll(done, nl, memoTexts, opt)
		for i, src := range memoTexts {
			if d := sameResult(got[i], want[i]); d != "" {
				t.Errorf("done ctx %v, %q: differs from a cache-less engine: %s", done.Err(), src, d)
			}
		}
	}
}

// TestVerdictMemoCountsInBytes: memoized verdicts are charged to the
// cache's bound: after every insert the total stays within it and equals
// the sum of the entries' charges, each verdict's charge covers its
// entry, text and counter-example, and Purge frees them.
func TestVerdictMemoCountsInBytes(t *testing.T) {
	const bound = 40 << 10
	nl := elab(t, chunkySrc, "chunky")
	var cache GraphCache
	cache.SetMaxBytes(bound)
	e := NewEngine()
	e.Graphs = &cache
	check := func(what string) {
		t.Helper()
		held := verdictEntries(t, &cache)
		cache.mu.Lock()
		defer cache.mu.Unlock()
		var sum int64
		for en := cache.head; en != nil; en = en.next {
			sum += en.bytes
		}
		for _, en := range held {
			floor := int64(unsafe.Sizeof(*en)) + int64(len(en.vkey.src))
			if x := en.res.CEX; x != nil {
				for _, row := range slices.Concat(x.Inputs, x.Sampled) {
					floor += 8 * int64(cap(row))
				}
			}
			if en.bytes < floor {
				t.Fatalf("%s: verdict %q charged %d bytes, it holds %d", what, en.vkey.src, en.bytes, floor)
			}
		}
		if sum != cache.total {
			t.Fatalf("%s: cache total %d, entries sum to %d", what, cache.total, sum)
		}
		if cache.total > bound {
			t.Fatalf("%s: cache holds %d bytes over its %d bound", what, cache.total, bound)
		}
	}
	stored := 0
	opt := chunkyOptions(120, 3)
	for k := 0; k < 40; k++ {
		src := fmt.Sprintf("rst == 0 |-> x < %d", 20+k)
		r := e.VerifySource(context.Background(), nl, src, opt)
		if k == 0 && r.CEX == nil {
			t.Fatal("test premise: the first text is refuted")
		}
		stored++
		check(src)
	}
	stored += len(memoTexts)
	e.VerifyAll(context.Background(), nl, memoTexts, opt)
	check("mixed batch")
	held := len(verdictEntries(t, &cache))
	if held == 0 || held >= stored {
		t.Fatalf("test premise: the bound should evict some verdicts and keep some, it holds %d of %d", held, stored)
	}
	cache.Purge()
	if cache.Bytes() != 0 || len(verdictEntries(t, &cache)) != 0 || cache.Len() != 0 {
		t.Fatalf("Purge left %d bytes, %d verdicts and %d graphs", cache.Bytes(), len(cache.verdicts), cache.Len())
	}
}

// TestVerdictMemoConcurrentEngines: four engines sharing one cache
// verify overlapping text sets over two designs concurrently, each twice,
// and every result equals a cache-less engine's.
func TestVerdictMemoConcurrentEngines(t *testing.T) {
	nls := []*verilog.Netlist{elab(t, chunkySrc, "chunky"), elab(t, counterSrc, "counter")}
	texts := [][]string{memoTexts, batchCases[0].props}
	opt := chunkyOptions(150, 3)
	want := make([][]Result, len(nls))
	for d, nl := range nls {
		want[d] = NewEngine().VerifyAll(context.Background(), nl, texts[d], opt)
	}
	var cache GraphCache
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewEngine()
			e.Graphs = &cache
			<-start
			for pass := 0; pass < 2; pass++ {
				for d := range nls {
					d := (d + w) % len(nls)
					// Each engine takes a rotated window, so neighbours
					// overlap and every text is shared by two engines.
					src := texts[d]
					idx := make([]int, 0, len(src))
					for k := range src {
						if (k+w)%4 < 3 {
							idx = append(idx, k)
						}
					}
					sub := make([]string, len(idx))
					for j, k := range idx {
						sub[j] = src[k]
					}
					got := e.VerifyAll(context.Background(), nls[d], sub, opt)
					for j, k := range idx {
						if diff := sameResult(got[j], want[d][k]); diff != "" {
							t.Errorf("engine %d pass %d, %q: differs from a cache-less engine: %s", w, pass, src[k], diff)
						}
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(verdictEntries(t, &cache)) == 0 {
		t.Error("concurrent engines memoized nothing")
	}
}
