package dverify

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// monitorStep is the seam between the harness's trace checks and the SVA
// monitor. Production code always routes through this variable; the
// mutation test swaps in a deliberately buggy stepper to prove oracle 2
// catches monitor defects.
var monitorStep = func(m *sva.Monitor, hist [][]uint64) sva.Outcome { return m.Step(hist) }

// batchVerify is the seam between the harness and the batched verifier.
// Production code always routes through this variable; the mutation test
// swaps in a result-corrupting wrapper to prove oracle 5 catches batched
// verdict drift.
var batchVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, cs []*sva.Compiled, opt fpv.Options) []fpv.Result {
	return e.VerifyBatch(ctx, nl, cs, opt)
}

// memoVerify is the seam between the harness and the memoized text path
// (fpv.Engine.VerifyAll over a GraphCache's verdict memo). Production
// code always routes through this variable; the mutation test swaps in a
// memo keyed on text alone to prove oracle 5 catches verdicts served
// across budgets.
var memoVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, srcs []string, opt fpv.Options) []fpv.Result {
	return e.VerifyAll(ctx, nl, srcs, opt)
}

// coneVerify is the seam between the harness and the cone-of-influence
// production path (oracle 6's reduced side). Production code always
// routes through this variable; the mutation test swaps in a
// verdict-corrupting wrapper to prove oracle 6 catches unsound cone
// projections.
var coneVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
	return e.VerifyCompiled(ctx, nl, c, opt)
}

// staticVerify is the seam between the harness and the static
// pre-verification production path (oracle 8's static side). Production
// code always routes through this variable; the mutation test swaps in a
// verdict-corrupting wrapper to prove oracle 8 catches unsound static
// discharges.
var staticVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
	return e.VerifyCompiled(ctx, nl, c, opt)
}

type harness struct {
	opt    Options
	exhEng *fpv.Engine
	bndEng *fpv.Engine
	// intEng runs the tree-walking reference backend for oracle 4
	// (compiled-vs-interpreted agreement).
	intEng *fpv.Engine
	// batchEng runs the shared-reachability batched verifier for oracle
	// 5, through its own graph cache so the cache paths are exercised.
	batchEng   *fpv.Engine
	batchCache fpv.GraphCache
	// refEng verifies each property as its own batch of one at the
	// batch's seed (the oracle-5 reference side). It has no graph cache,
	// so every property gets a private graph and hunt trace.
	refEng *fpv.Engine
	// coneEng/fullEng run the cone-reduced production path and the
	// full-design reference for oracle 6; stEng/pureEng run the
	// static-pass production path and the pure-search reference for
	// oracle 8.
	coneEng, fullEng *fpv.Engine
	stEng, pureEng   *fpv.Engine
	// store is the persistent artifact store oracle 9 round-trips
	// programs and reachability graphs through (one temp-dir store per
	// Run). The engines on either side of that comparison are built fresh
	// per scenario: the warm side must start with an empty memory cache
	// so every graph it serves is a disk read.
	store *astore.Store
}

// Reference (deep) and adversary (deliberately starved) FPV budgets. The
// reference budget is sized to close the product space on a solid
// majority of generated designs (the family parameter bounds in
// bench/fuzzgen.go are chosen against it), so the exhaustive-vs-bounded
// and exhaustive-vs-trace checks engage routinely, not incidentally; the
// starved budget forces input sampling and depth truncation so the
// bounded code paths are exercised against the exhaustive verdicts.
func (h *harness) exhOpt(seed int64) fpv.Options {
	return fpv.Options{MaxProductStates: 60000, MaxInputBits: 12,
		MaxInputSamples: 12, RandomRuns: 16, RandomDepth: 32, Seed: seed}
}

func (h *harness) bndOpt(seed int64) fpv.Options {
	return fpv.Options{MaxProductStates: 160, MaxInputBits: 3,
		MaxInputSamples: 5, RandomRuns: 8, RandomDepth: 20, Seed: seed + 7}
}

type scenarioResult struct {
	properties       int
	exhaustive       int
	cexs             int
	backend          int
	batch            int
	batchSaved       int
	cone             int
	coneSaved        int
	static           int
	staticDischarged int
	store            int
	storeLoads       int
	storeSaved       int
	refStatus        map[string]int
	disagreements    []Disagreement
}

// initEngines makes the harness's engines on first use.
func (h *harness) initEngines() {
	if h.exhEng != nil {
		return
	}
	h.exhEng = fpv.NewEngine()
	h.bndEng = fpv.NewEngine()
	h.intEng = fpv.NewEngine()
	h.refEng = fpv.NewEngine()
	h.batchEng = fpv.NewEngine()
	h.batchEng.Graphs = &h.batchCache
	h.coneEng = fpv.NewEngine()
	h.fullEng = fpv.NewEngine()
	h.stEng = fpv.NewEngine()
	h.pureEng = fpv.NewEngine()
}

// checkScenario runs every per-design oracle over one design genome.
// propSeed fixes the property set so shrunk genomes are checked against
// the same property generator stream.
func (h *harness) checkScenario(ctx context.Context, spec bench.FuzzSpec, propSeed int64) scenarioResult {
	h.initEngines()
	res := scenarioResult{refStatus: map[string]int{}}
	d := spec.Build()
	disagree := func(prop, detail string) {
		res.disagreements = append(res.disagreements, Disagreement{
			Oracle: OracleRoundTrip, Spec: spec, Property: prop, Detail: detail,
		})
	}

	// Oracle 1: print/parse round-trip.
	file, err := verilog.Parse(d.Source)
	if err != nil {
		disagree("", fmt.Sprintf("generated design does not parse: %v", err))
		return res
	}
	nl, err := verilog.Elaborate(file, d.Name, nil)
	if err != nil {
		disagree("", fmt.Sprintf("generated design does not elaborate: %v", err))
		return res
	}
	if detail := roundTrip(file, nl, d.Name); detail != "" {
		disagree("", detail)
	}

	// Oracle 4 (design level): the compiled simulator must track the
	// tree-walking interpreter bit for bit along a random stimulus run.
	res.backend++
	if detail := sim.CompareBackends(nl, h.opt.TraceCycles, propSeed); detail != "" {
		res.disagreements = append(res.disagreements, Disagreement{
			Oracle: OracleBackend, Spec: spec, Detail: detail,
		})
	}

	// Oracles 2 and 4 per property: sim vs monitor vs FPV agreement, and
	// compiled-vs-interpreted verdict identity.
	props := genProps(nl, propSeed, h.opt.PropsPerDesign)
	for i, src := range props {
		if ctx.Err() != nil {
			return res
		}
		res.properties++
		pc := h.checkProperty(ctx, nl, src, propSeed+int64(i))
		res.exhaustive += pc.exhaustive
		res.cexs += pc.cexs
		res.backend += pc.backend
		if pc.refStatus != "" {
			res.refStatus[pc.refStatus]++
		}
		if pc.detail != "" && ctx.Err() == nil {
			res.disagreements = append(res.disagreements, Disagreement{
				Oracle: pc.oracle, Spec: spec, Property: src, Detail: pc.detail,
			})
		}
	}

	// Oracles 5, 6, 8 and 9 compare whole verifier configurations per
	// property, so they share one compilation pass over the scenario's
	// compilable properties (parse/compile failures were already
	// reported by checkProperty).
	cs, srcs := compileProps(nl, props)

	// Oracle 5: the batched verifier (shared reachability graph + shared
	// hunt traces) against unshared batches of one and against itself in
	// reverse order, then the memoized text path, at both budgets.
	nBatch, batchSaved, ds := h.checkBatch(ctx, nl, spec, cs, srcs, props, propSeed)
	res.batch += nBatch
	res.batchSaved += batchSaved
	res.disagreements = append(res.disagreements, ds...)

	// Oracle 6: cone-of-influence-reduced search against the full-design
	// reference, at both budgets.
	nCone, coneSaved, ds6 := h.checkCone(ctx, nl, spec, cs, srcs, propSeed)
	res.cone += nCone
	res.coneSaved += coneSaved
	res.disagreements = append(res.disagreements, ds6...)

	// Oracle 8: the static pre-verification pass against the pure-search
	// reference, at both budgets.
	nStatic, nDischarged, ds8 := h.checkStatic(ctx, nl, spec, cs, srcs, propSeed)
	res.static += nStatic
	res.staticDischarged += nDischarged
	res.disagreements = append(res.disagreements, ds8...)

	// Oracle 9: FPV served from the persistent artifact store against
	// the store-free reference, at both budgets.
	nStore, nLoads, storeSaved, ds9 := h.checkStore(ctx, nl, d.Source, d.Name, spec, cs, srcs, propSeed)
	res.store += nStore
	res.storeLoads += nLoads
	res.storeSaved += storeSaved
	res.disagreements = append(res.disagreements, ds9...)
	return res
}

// compileProps compiles the scenario's properties, dropping the ones that
// do not parse or compile (those are checkProperty findings, not input for
// the configuration-comparison oracles).
func compileProps(nl *verilog.Netlist, props []string) ([]*sva.Compiled, []string) {
	var cs []*sva.Compiled
	var srcs []string
	for _, src := range props {
		a, err := sva.Parse(src)
		if err != nil {
			continue
		}
		c, err := sva.Compile(a, nl)
		if err != nil {
			continue
		}
		cs = append(cs, c)
		srcs = append(srcs, src)
	}
	return cs, srcs
}

// checkBatch cross-checks fpv.VerifyBatch over the scenario's compilable
// properties against each property verified on its own on a cache-less
// engine (a private graph and hunt trace per property): every result
// field must match (diffResults, CEX stimulus included), and batched
// counter-examples must independently replay on the simulator. The
// first half of the properties is verified first, on batchEng's cache,
// so the forward batch over all of them widens a cached graph whenever
// it reads nets the half did not; the half's results must match the
// reference too. The same batch then runs again in reverse order on the
// cache the forward pass just filled, and each result must equal its
// forward result field for field — a verdict that depends on which
// property expanded a node first, or on a graph served from the cache,
// shows up there and nowhere else. Sharing may only save work: each of
// the three batched calls must expand at most as many graph nodes as its
// properties expand as batches of one, summed, whatever the cache holds;
// the difference is the layer's saving. Last comes the memoized text
// path (checkMemo).
func (h *harness) checkBatch(ctx context.Context, nl *verilog.Netlist, spec bench.FuzzSpec, cs []*sva.Compiled, srcs, props []string, seed int64) (checks, saved int, ds []Disagreement) {
	if len(cs) == 0 {
		return 0, 0, nil
	}
	disagree := func(prop, detail string) {
		ds = append(ds, Disagreement{Oracle: OracleBatch, Spec: spec, Property: prop, Detail: detail})
	}
	rev := slices.Clone(cs)
	slices.Reverse(rev)
	calls := []struct {
		name string
		cs   []*sva.Compiled
	}{{"first-half", cs[:len(cs)/2]}, {"forward", cs}, {"reversed", rev}}
	for _, label := range []struct {
		name string
		opt  fpv.Options
	}{{"deep", h.exhOpt(seed)}, {"starved", h.bndOpt(seed)}} {
		got := make([][]fpv.Result, len(calls))
		expanded := make([]int, len(calls))
		for k, call := range calls {
			n := h.batchEng.Expanded()
			got[k] = batchVerify(h.batchEng, ctx, nl, call.cs, label.opt)
			expanded[k] = h.batchEng.Expanded() - n
		}
		half, batch, reversed := got[0], got[1], got[2]
		refs := make(map[string]fpv.Result, len(cs))
		// refExpanded[i] sums the first i+1 properties' expansions as
		// batches of one.
		refExpanded := make([]int, len(cs))
		for i, c := range cs {
			n := h.refEng.Expanded()
			ref := h.refEng.VerifyCompiled(ctx, nl, c, label.opt)
			if ctx.Err() != nil {
				return checks, saved, ds
			}
			refExpanded[i] = h.refEng.Expanded() - n
			if i > 0 {
				refExpanded[i] += refExpanded[i-1]
			}
			refs[srcs[i]] = ref
			checks++
			if i < len(half) {
				if d := diffResults(half[i], ref); d != "" {
					disagree(srcs[i], fmt.Sprintf("batched FPV and its batch of one disagree at the %s budget, on the first half of the properties: %s", label.name, d))
					continue
				}
			}
			if d := diffResults(batch[i], ref); d != "" {
				disagree(srcs[i], fmt.Sprintf("batched FPV and its batch of one disagree at the %s budget: %s", label.name, d))
				continue
			}
			if d := diffResults(reversed[len(cs)-1-i], batch[i]); d != "" {
				disagree(srcs[i], fmt.Sprintf("batched FPV in reverse order on a warm cache disagrees with the forward batch at the %s budget: %s", label.name, d))
				continue
			}
			if batch[i].Status != fpv.StatusCEX {
				continue
			}
			// Identity with the reference already pins the stimulus; the
			// replay is the independent re-derivation on the simulator.
			violated, cycle, attempt, err := replayViolation(nl, c, batch[i].CEX.Inputs)
			if err != nil {
				disagree(srcs[i], fmt.Sprintf("batched CEX stimulus cannot be driven on the simulator: %v", err))
			} else if !violated {
				disagree(srcs[i], "batched CEX does not violate the monitor when replayed on the simulator")
			} else if cycle != batch[i].CEX.ViolationCycle || attempt != batch[i].CEX.AttemptCycle {
				disagree(srcs[i], fmt.Sprintf("batched CEX replays at cycle %d (attempt %d), engine reported cycle %d (attempt %d)",
					cycle, attempt, batch[i].CEX.ViolationCycle, batch[i].CEX.AttemptCycle))
			}
		}
		for k, call := range calls {
			if len(call.cs) == 0 {
				continue
			}
			ref := refExpanded[len(call.cs)-1]
			if expanded[k] > ref {
				disagree("", fmt.Sprintf("the %s batch expanded %d graph nodes at the %s budget, more than the %d its properties expand as batches of one",
					call.name, expanded[k], label.name, ref))
			}
			saved += ref - expanded[k]
		}
		h.checkMemo(ctx, nl, props, refs, label.opt, func(prop, detail string) {
			disagree(prop, fmt.Sprintf("memoized FPV and the cache-less engine disagree at the %s budget: %s", label.name, detail))
		})
	}
	return checks, saved, ds
}

// checkMemo sends the scenario's texts through the memoized text path on
// batchEng's cache: every other text forward, then all of them reversed
// with one text repeated, plus a text that does not parse and one that
// does not compile. The second call mixes memo hits with misses, an
// in-call duplicate and error results, and the deep budget's entries sit
// in the cache when the starved pass asks the same texts. Every result
// must equal the cache-less reference field for field: refs holds it for
// the compilable texts, refEng computes the rest.
func (h *harness) checkMemo(ctx context.Context, nl *verilog.Netlist, props []string, refs map[string]fpv.Result, opt fpv.Options, disagree func(prop, detail string)) {
	texts := append(slices.Clone(props), "("+props[0], "dverify_no_such_net == 1 |-> dverify_no_such_net == 0")
	var fwd []string
	for i := 0; i < len(texts); i += 2 {
		fwd = append(fwd, texts[i])
	}
	rev := slices.Clone(texts)
	slices.Reverse(rev)
	rev = append(rev, texts[len(texts)/2])
	for _, pass := range [][]string{fwd, rev} {
		got := memoVerify(h.batchEng, ctx, nl, pass, opt)
		for i, src := range pass {
			ref, ok := refs[src]
			if !ok {
				ref = h.refEng.VerifySource(ctx, nl, src, opt)
				refs[src] = ref
			}
			if ctx.Err() != nil {
				return
			}
			if d := diffResults(got[i], ref); d != "" {
				disagree(src, d)
			}
		}
	}
}

// checkCone cross-checks the cone-of-influence-reduced search against
// the full-design reference (oracle 6). Cone reduction changes the
// explored state space — state counts, search depth, sampled stimulus
// and even the exhaustiveness decision legitimately differ — so the
// check is semantic agreement, not field identity:
//
//   - the reduced product space is a projection of the full one, so
//     whenever the full search closes exhaustively the reduced search
//     must too;
//   - two exhaustive verdicts are both sound, so they must name the
//     same status and vacuity;
//   - a bounded finding (CEX, antecedent witness) on either side is a
//     concrete witness and must not contradict an exhaustive verdict
//     from the other side;
//   - every counter-example from either side must replay on the FULL
//     design — the cone engine reports stimuli in full input layout, so
//     the replay needs no translation;
//   - when both sides close exhaustively without a counter-example, each
//     has expanded every design state its product search reaches, and
//     the cone's are a projection of the full design's, so the cone side
//     must expand at most as many graph nodes. Bounded and CEX runs stop
//     at a budget or at the first violation, so there the cone side may
//     expand more.
//
// The layer's saving is the full design's expansions minus the cone
// side's, summed over every comparison.
func (h *harness) checkCone(ctx context.Context, nl *verilog.Netlist, spec bench.FuzzSpec, cs []*sva.Compiled, srcs []string, seed int64) (checks, saved int, ds []Disagreement) {
	disagree := func(prop, detail string) {
		ds = append(ds, Disagreement{Oracle: OracleCone, Spec: spec, Property: prop, Detail: detail})
	}
	for _, label := range []struct {
		name string
		opt  fpv.Options
	}{{"deep", h.exhOpt(seed)}, {"starved", h.bndOpt(seed)}} {
		refOpt := label.opt
		refOpt.FullDesign = true
		for i, c := range cs {
			n := h.coneEng.Expanded()
			cone := coneVerify(h.coneEng, ctx, nl, c, label.opt)
			coneExpanded := h.coneEng.Expanded() - n
			n = h.fullEng.Expanded()
			full := h.fullEng.VerifyCompiled(ctx, nl, c, refOpt)
			fullExpanded := h.fullEng.Expanded() - n
			if ctx.Err() != nil {
				return checks, saved, ds
			}
			checks++
			saved += fullExpanded - coneExpanded
			if cone.Status == fpv.StatusError || full.Status == fpv.StatusError {
				if cone.Status != full.Status {
					disagree(srcs[i], fmt.Sprintf("cone-reduced FPV status %v vs full-design %v at the %s budget",
						cone.Status, full.Status, label.name))
				}
				continue
			}
			switch {
			case full.Exhaustive && !cone.Exhaustive:
				disagree(srcs[i], fmt.Sprintf("full-design search closed exhaustively at the %s budget but the cone-reduced search did not (the reduced space is a projection and cannot be larger)", label.name))
				continue
			case cone.Exhaustive && full.Exhaustive:
				if cone.Status != full.Status || cone.NonVacuous != full.NonVacuous {
					disagree(srcs[i], fmt.Sprintf("cone-reduced and full-design FPV disagree at the %s budget: %v (nonvacuous=%v) vs %v (nonvacuous=%v)",
						label.name, cone.Status, cone.NonVacuous, full.Status, full.NonVacuous))
					continue
				}
				if cone.Status != fpv.StatusCEX && coneExpanded > fullExpanded {
					disagree(srcs[i], fmt.Sprintf("cone-reduced FPV expanded %d graph nodes at the %s budget, more than the full design's %d, though both closed exhaustively",
						coneExpanded, label.name, fullExpanded))
				}
			case cone.Exhaustive:
				// Full-design bounded findings are concrete witnesses.
				if full.Status == fpv.StatusCEX && cone.Status != fpv.StatusCEX {
					disagree(srcs[i], fmt.Sprintf("full-design bounded FPV found a CEX at the %s budget but the exhaustive cone-reduced verdict is %v", label.name, cone.Status))
					continue
				}
				if full.NonVacuous && cone.Status == fpv.StatusVacuous {
					disagree(srcs[i], fmt.Sprintf("full-design bounded FPV witnessed the antecedent at the %s budget but the exhaustive cone-reduced verdict is vacuous", label.name))
					continue
				}
			}
			// Both-bounded runs carry no comparable verdict, but every CEX
			// is independently checkable.
			for _, r := range []struct {
				side string
				res  fpv.Result
			}{{"cone-reduced", cone}, {"full-design", full}} {
				if r.res.Status != fpv.StatusCEX {
					continue
				}
				violated, cycle, attempt, err := replayViolation(nl, c, r.res.CEX.Inputs)
				if err != nil {
					disagree(srcs[i], fmt.Sprintf("%s CEX stimulus cannot be driven on the simulator (%s budget): %v", r.side, label.name, err))
				} else if !violated {
					disagree(srcs[i], fmt.Sprintf("%s CEX does not violate the monitor when replayed on the simulator (%s budget)", r.side, label.name))
				} else if cycle != r.res.CEX.ViolationCycle || attempt != r.res.CEX.AttemptCycle {
					disagree(srcs[i], fmt.Sprintf("%s CEX replays at cycle %d (attempt %d), engine reported cycle %d (attempt %d) (%s budget)",
						r.side, cycle, attempt, r.res.CEX.ViolationCycle, r.res.CEX.AttemptCycle, label.name))
				}
			}
		}
	}
	return checks, saved, ds
}

// checkStatic cross-checks FPV with the static pre-verification pass
// against the pure-search reference (oracle 8). A property the pass does
// not discharge runs exactly the pure search, so the two results must be
// identical field for field (diffResults). The pass may settle a
// property without any search (an abstract-interpretation discharge, or
// a zero-stimulus witness), so for discharged properties state counts,
// depth and stimulus legitimately differ; that contract is semantic,
// like the cone oracle's:
//
//   - a discharge is always exhaustive, so whenever the pure search
//     closes exhaustively the static side must too;
//   - two exhaustive verdicts are both sound, so they must name the same
//     status and vacuity;
//   - a bounded finding (CEX, antecedent witness) on either side is a
//     concrete witness and must not contradict an exhaustive verdict
//     from the other side;
//   - every counter-example from either side — in particular the
//     zero-stimulus witnesses the static pass fabricates without
//     searching — must replay on the full design at the reported cycle.
func (h *harness) checkStatic(ctx context.Context, nl *verilog.Netlist, spec bench.FuzzSpec, cs []*sva.Compiled, srcs []string, seed int64) (int, int, []Disagreement) {
	checks, discharged := 0, 0
	var ds []Disagreement
	disagree := func(prop, detail string) {
		ds = append(ds, Disagreement{Oracle: OracleStatic, Spec: spec, Property: prop, Detail: detail})
	}
	for _, label := range []struct {
		name string
		opt  fpv.Options
	}{{"deep", h.exhOpt(seed)}, {"starved", h.bndOpt(seed)}} {
		refOpt := label.opt
		refOpt.NoStatic = true
		for i, c := range cs {
			st := staticVerify(h.stEng, ctx, nl, c, label.opt)
			pure := h.pureEng.VerifyCompiled(ctx, nl, c, refOpt)
			if ctx.Err() != nil {
				return checks, discharged, ds
			}
			checks++
			if st.Static && label.name == "deep" {
				discharged++
			}
			if !st.Static {
				if d := diffResults(st, pure); d != "" {
					disagree(srcs[i], fmt.Sprintf("static-pass FPV did not discharge the property but differs from the pure search at the %s budget: %s", label.name, d))
				}
				continue
			}
			if st.Status == fpv.StatusError || pure.Status == fpv.StatusError {
				if st.Status != pure.Status {
					disagree(srcs[i], fmt.Sprintf("static-pass FPV status %v vs pure-search %v at the %s budget",
						st.Status, pure.Status, label.name))
				}
				continue
			}
			switch {
			case pure.Exhaustive && !st.Exhaustive:
				disagree(srcs[i], fmt.Sprintf("pure search closed exhaustively at the %s budget but the static-pass verdict is not (discharges are exhaustive)", label.name))
				continue
			case st.Exhaustive && pure.Exhaustive:
				if st.Status != pure.Status || st.NonVacuous != pure.NonVacuous {
					disagree(srcs[i], fmt.Sprintf("static-pass and pure-search FPV disagree at the %s budget: %v (nonvacuous=%v) vs %v (nonvacuous=%v)",
						label.name, st.Status, st.NonVacuous, pure.Status, pure.NonVacuous))
					continue
				}
			case st.Exhaustive:
				// Pure-search bounded findings are concrete witnesses.
				if pure.Status == fpv.StatusCEX && st.Status != fpv.StatusCEX {
					disagree(srcs[i], fmt.Sprintf("pure-search bounded FPV found a CEX at the %s budget but the exhaustive static-pass verdict is %v", label.name, st.Status))
					continue
				}
				if pure.NonVacuous && st.Status == fpv.StatusVacuous {
					disagree(srcs[i], fmt.Sprintf("pure-search bounded FPV witnessed the antecedent at the %s budget but the exhaustive static-pass verdict is vacuous", label.name))
					continue
				}
			}
			// Every CEX from either side is independently checkable — for a
			// statically fabricated witness this replay is the only dynamic
			// evidence it ever gets.
			for _, r := range []struct {
				side string
				res  fpv.Result
			}{{"static-pass", st}, {"pure-search", pure}} {
				if r.res.Status != fpv.StatusCEX {
					continue
				}
				violated, cycle, attempt, err := replayViolation(nl, c, r.res.CEX.Inputs)
				if err != nil {
					disagree(srcs[i], fmt.Sprintf("%s CEX stimulus cannot be driven on the simulator (%s budget): %v", r.side, label.name, err))
				} else if !violated {
					disagree(srcs[i], fmt.Sprintf("%s CEX does not violate the monitor when replayed on the simulator (%s budget)", r.side, label.name))
				} else if cycle != r.res.CEX.ViolationCycle || attempt != r.res.CEX.AttemptCycle {
					disagree(srcs[i], fmt.Sprintf("%s CEX replays at cycle %d (attempt %d), engine reported cycle %d (attempt %d) (%s budget)",
						r.side, cycle, attempt, r.res.CEX.ViolationCycle, r.res.CEX.AttemptCycle, label.name))
				}
			}
		}
	}
	return checks, discharged, ds
}

// checkStore cross-checks FPV served from the persistent artifact store
// against a store-free reference (oracle 9). The compiled execution
// program rides through the store first — encode, Put, Get (through the
// astore.LoadHook mutation seam), decode, byte-stable re-encode, and
// adoption by a fresh elaboration of the same source — then each budget
// runs the batch three ways: a store-free reference over the original
// netlist, a populate pass whose cache writes its exploration behind to
// disk, and a warm pass through another empty memory cache over the same
// store, so every graph the warm pass touches is a disk read. The
// populate pass verifies the first half of the properties and then all
// of them, as oracle 5 does, so the stored graph is one widened over the
// full batch's union, with expanded nodes the full batch never re-rowed
// whenever the half expanded more than the full batch reads. The warm
// results must reproduce the reference field for field (a disk-loaded
// graph replays the exact exploration the search would redo), and warm
// counter-examples must independently replay on the simulator. The warm
// pass must expand at most as many graph nodes as the reference, whatever
// the store holds; the difference is the layer's saving.
func (h *harness) checkStore(ctx context.Context, nl *verilog.Netlist, src, top string, spec bench.FuzzSpec, cs []*sva.Compiled, srcs []string, seed int64) (checks, loads, saved int, ds []Disagreement) {
	if h.store == nil || len(cs) == 0 {
		return 0, 0, 0, nil
	}
	hits0 := h.store.Hits()
	defer func() { loads = int(h.store.Hits() - hits0) }()
	disagree := func(prop, detail string) {
		ds = append(ds, Disagreement{Oracle: OracleStore, Spec: spec, Property: prop, Detail: detail})
	}

	// A fresh elaboration stands in for the "other process" that reads
	// the blobs back: it shares no pointers with nl, only source text.
	file2, err := verilog.Parse(src)
	if err != nil {
		return checks, loads, saved, ds // oracle 1's finding, not ours
	}
	nl2, err := verilog.Elaborate(file2, top, nil)
	if err != nil {
		return checks, loads, saved, ds
	}
	progKey := fmt.Sprintf("dv\x00%x", nl.ContentHash())
	blob := verilog.EncodeProgram(nl.Program())
	if err := h.store.Put(astore.KindProgram, progKey, blob); err != nil {
		disagree("", fmt.Sprintf("program blob does not write to the store: %v", err))
		return checks, loads, saved, ds
	}
	if back, ok := h.store.Get(astore.KindProgram, progKey); !ok {
		disagree("", "program blob written to the store does not read back")
	} else if p2, err := verilog.DecodeProgram(back); err != nil {
		disagree("", fmt.Sprintf("stored program blob does not decode: %v", err))
	} else if re := verilog.EncodeProgram(p2); !bytes.Equal(re, blob) {
		disagree("", "program blob is not byte-stable across a store round-trip")
	} else if !nl2.AdoptProgram(p2) {
		// The miss contract (discard and rebuild) covers corrupt blobs,
		// but a healthy blob a same-source netlist rejects means the
		// shape check or the codec is wrong.
		disagree("", "fresh elaboration of the same source rejects the stored program")
	}
	cs2, _ := compileProps(nl2, srcs)
	if len(cs2) != len(cs) {
		disagree("", fmt.Sprintf("only %d of %d properties recompile against the fresh elaboration", len(cs2), len(cs)))
		return checks, loads, saved, ds
	}

	for _, label := range []struct {
		name string
		opt  fpv.Options
	}{{"deep", h.exhOpt(seed)}, {"starved", h.bndOpt(seed)}} {
		refE := fpv.NewEngine()
		refE.Graphs = &fpv.GraphCache{}
		ref := refE.VerifyBatch(ctx, nl, cs, label.opt)

		popE := fpv.NewEngine()
		popE.Graphs = &fpv.GraphCache{}
		popE.Graphs.SetDisk(h.store)
		popE.VerifyBatch(ctx, nl2, cs2[:len(cs2)/2], label.opt)
		popE.VerifyBatch(ctx, nl2, cs2, label.opt)

		warmE := fpv.NewEngine()
		warmE.Graphs = &fpv.GraphCache{}
		warmE.Graphs.SetDisk(h.store)
		warm := warmE.VerifyBatch(ctx, nl2, cs2, label.opt)
		if ctx.Err() != nil {
			return checks, loads, saved, ds
		}
		if warmE.Expanded() > refE.Expanded() {
			disagree("", fmt.Sprintf("the warm pass expanded %d graph nodes at the %s budget, more than the store-free reference's %d",
				warmE.Expanded(), label.name, refE.Expanded()))
		}
		saved += refE.Expanded() - warmE.Expanded()
		for i := range cs {
			checks++
			if d := diffResults(warm[i], ref[i]); d != "" {
				disagree(srcs[i], fmt.Sprintf("disk-served and store-free FPV disagree at the %s budget: %s", label.name, d))
				continue
			}
			if warm[i].Status != fpv.StatusCEX {
				continue
			}
			violated, cycle, attempt, err := replayViolation(nl, cs[i], warm[i].CEX.Inputs)
			if err != nil {
				disagree(srcs[i], fmt.Sprintf("disk-served CEX stimulus cannot be driven on the simulator (%s budget): %v", label.name, err))
			} else if !violated {
				disagree(srcs[i], fmt.Sprintf("disk-served CEX does not violate the monitor when replayed on the simulator (%s budget)", label.name))
			} else if cycle != warm[i].CEX.ViolationCycle || attempt != warm[i].CEX.AttemptCycle {
				disagree(srcs[i], fmt.Sprintf("disk-served CEX replays at cycle %d (attempt %d), engine reported cycle %d (attempt %d) (%s budget)",
					cycle, attempt, warm[i].CEX.ViolationCycle, warm[i].CEX.AttemptCycle, label.name))
			}
		}
	}
	return checks, loads, saved, ds
}

// roundTrip checks PrintFile -> Parse -> Elaborate netlist identity and
// printer idempotence.
func roundTrip(file *verilog.SourceFile, nl *verilog.Netlist, top string) string {
	printed := verilog.PrintFile(file)
	file2, err := verilog.Parse(printed)
	if err != nil {
		return fmt.Sprintf("printed design does not re-parse: %v", err)
	}
	nl2, err := verilog.Elaborate(file2, top, nil)
	if err != nil {
		return fmt.Sprintf("printed design does not re-elaborate: %v", err)
	}
	if !verilog.SignatureEqual(nl, nl2) {
		return "netlist signature changed across print/parse round-trip:\n" +
			firstDiff(nl.Signature(), nl2.Signature())
	}
	if printed2 := verilog.PrintFile(file2); printed2 != printed {
		return "printer is not idempotent:\n" + firstDiff(printed, printed2)
	}
	return ""
}

// propCheck carries one property's cross-check outcome: the first
// contradiction (with the oracle it belongs to) and the report counters.
type propCheck struct {
	detail     string
	oracle     Oracle
	exhaustive int
	cexs       int
	backend    int
	refStatus  string
}

func (p *propCheck) fail(oracle Oracle, format string, args ...any) propCheck {
	p.oracle = oracle
	p.detail = fmt.Sprintf(format, args...)
	return *p
}

// checkProperty cross-checks one property: exhaustive FPV vs bounded FPV
// vs the monitor over simulated traces vs counter-example replay
// (oracle 2), and the compiled execution backend vs the tree-walking
// interpreter (oracle 4). Returns on the first contradiction.
func (h *harness) checkProperty(ctx context.Context, nl *verilog.Netlist, src string, seed int64) propCheck {
	var pc propCheck
	a, err := sva.Parse(src)
	if err != nil {
		return pc.fail(OracleAgreement, "generated property does not parse: %v", err)
	}
	// The assertion's canonical rendering must itself re-parse to the
	// same canonical form (the monitor-facing analogue of oracle 1).
	canon := a.String()
	if a2, err := sva.Parse(canon); err != nil {
		return pc.fail(OracleAgreement, "canonical rendering %q does not re-parse: %v", canon, err)
	} else if a2.String() != canon {
		return pc.fail(OracleAgreement, "canonical rendering is unstable: %q -> %q", canon, a2.String())
	}
	c, err := sva.Compile(a, nl)
	if err != nil {
		return pc.fail(OracleAgreement, "generated property does not compile: %v", err)
	}

	exh := h.exhEng.VerifyCompiled(ctx, nl, c, h.exhOpt(seed))
	bnd := h.bndEng.VerifyCompiled(ctx, nl, c, h.bndOpt(seed))
	if ctx.Err() != nil {
		return pc
	}
	if exh.Status == fpv.StatusError {
		return pc.fail(OracleAgreement, "reference FPV errored on a well-formed property: %v", exh.Err)
	}
	if bnd.Status == fpv.StatusError {
		return pc.fail(OracleAgreement, "bounded FPV errored on a well-formed property: %v", bnd.Err)
	}

	pc.refStatus = exh.Status.String()
	if exh.Exhaustive {
		pc.exhaustive++
	}

	// Oracle 4: re-verify on the interpreting backend at the reference
	// budget — every field of the result, down to state counts, search
	// depth and the CEX stimulus, must be identical to the compiled run.
	intOpt := h.exhOpt(seed)
	intOpt.Interp = true
	intp := h.intEng.VerifyCompiled(ctx, nl, c, intOpt)
	if ctx.Err() != nil {
		return pc
	}
	pc.backend++
	if d := diffResults(exh, intp); d != "" {
		return pc.fail(OracleBackend, "compiled and interpreted FPV disagree: %s", d)
	}

	// Bounded mode must never contradict exhaustive mode: a bounded CEX
	// is a concrete witness, and a bounded non-vacuity witness is real.
	if exh.Exhaustive {
		if bnd.Status == fpv.StatusCEX && exh.Status != fpv.StatusCEX {
			return pc.fail(OracleAgreement, "bounded FPV found a CEX but exhaustive verdict is %v", exh.Status)
		}
		if bnd.NonVacuous && exh.Status == fpv.StatusVacuous {
			return pc.fail(OracleAgreement, "bounded FPV witnessed the antecedent but exhaustive verdict is vacuous")
		}
	}

	// Every CEX must replay on the event-driven simulator with the
	// monitor flagging the violation at the reported cycle.
	for _, r := range []struct {
		label string
		res   fpv.Result
	}{{"exhaustive", exh}, {"bounded", bnd}} {
		if r.res.Status != fpv.StatusCEX {
			continue
		}
		pc.cexs++
		violated, cycle, attempt, err := replayViolation(nl, c, r.res.CEX.Inputs)
		if err != nil {
			return pc.fail(OracleAgreement, "%s FPV CEX stimulus cannot be driven on the simulator: %v", r.label, err)
		}
		if !violated {
			return pc.fail(OracleAgreement, "%s FPV CEX does not violate the monitor when replayed on the simulator", r.label)
		}
		if cycle != r.res.CEX.ViolationCycle || attempt != r.res.CEX.AttemptCycle {
			return pc.fail(OracleAgreement, "%s FPV CEX replays at cycle %d (attempt %d), engine reported cycle %d (attempt %d)",
				r.label, cycle, attempt, r.res.CEX.ViolationCycle, r.res.CEX.AttemptCycle)
		}
	}

	// The monitor over random simulation traces must agree with the
	// exhaustive verdict: a trace violation refutes a proof, and a trace
	// antecedent witness refutes vacuity. The trace must start at the
	// power-on state (resetCycles = 0): the checker zero-pads pre-trace
	// history, which matches the FPV root exactly at power-on, whereas a
	// warm-up prefix would fabricate (state, zero-history) product states
	// no real path exhibits and let $past/$fell atoms witness antecedents
	// the exhaustive search correctly calls unreachable — the harness
	// found exactly that as a false vacuity "disagreement" on the reset
	// synchronizer family before this alignment.
	for t := 0; t < h.opt.TraceCount; t++ {
		tr, err := sim.RandomTrace(nl, h.opt.TraceCycles, 0, seed*31+int64(t))
		if err != nil {
			return pc.fail(OracleAgreement, "random trace simulation failed: %v", err)
		}
		violations, nonVacuous := fpv.CheckTraceCompiled(nl, c, tr, monitorStep)
		if exh.Exhaustive {
			if len(violations) > 0 && exh.Status != fpv.StatusCEX {
				return pc.fail(OracleAgreement, "monitor violation at trace cycle %d but exhaustive verdict is %v",
					violations[0].ViolationCycle, exh.Status)
			}
			if nonVacuous && exh.Status == fpv.StatusVacuous {
				return pc.fail(OracleAgreement, "monitor witnessed the antecedent on a trace but exhaustive verdict is vacuous")
			}
		}
		// Oracle 4: the compiled and interpreting monitors must flag the
		// same violations at the same cycles over the same trace.
		iv, inv, err := fpv.CheckTraceBackend(nl, c, tr, monitorStep, true)
		if err != nil {
			return pc.fail(OracleBackend, "interpreting trace check errored: %v", err)
		}
		pc.backend++
		if len(iv) != len(violations) || inv != nonVacuous {
			return pc.fail(OracleBackend, "monitor backends disagree on a trace: compiled %d violations (nonvacuous=%v), interp %d (nonvacuous=%v)",
				len(violations), nonVacuous, len(iv), inv)
		}
		for k := range iv {
			if iv[k] != violations[k] {
				return pc.fail(OracleBackend, "monitor backends disagree on violation %d: compiled cycle %d (attempt %d), interp cycle %d (attempt %d)",
					k, violations[k].ViolationCycle, violations[k].AttemptCycle, iv[k].ViolationCycle, iv[k].AttemptCycle)
			}
		}
	}
	return pc
}

// diffResults compares two FPV results field by field (including the CEX
// stimulus), returning a human-readable description of the first
// difference or "" when identical.
func diffResults(a, b fpv.Result) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case a.NonVacuous != b.NonVacuous:
		return fmt.Sprintf("nonvacuous %v vs %v", a.NonVacuous, b.NonVacuous)
	case a.Exhaustive != b.Exhaustive:
		return fmt.Sprintf("exhaustive %v vs %v", a.Exhaustive, b.Exhaustive)
	case a.Static != b.Static:
		return fmt.Sprintf("statically discharged %v vs %v", a.Static, b.Static)
	case a.States != b.States:
		return fmt.Sprintf("visited states %d vs %d", a.States, b.States)
	case a.Depth != b.Depth:
		return fmt.Sprintf("depth %d vs %d", a.Depth, b.Depth)
	case (a.CEX == nil) != (b.CEX == nil):
		return fmt.Sprintf("cex presence %v vs %v", a.CEX != nil, b.CEX != nil)
	}
	if a.CEX == nil {
		return ""
	}
	if a.CEX.ViolationCycle != b.CEX.ViolationCycle || a.CEX.AttemptCycle != b.CEX.AttemptCycle {
		return fmt.Sprintf("cex at cycle %d (attempt %d) vs cycle %d (attempt %d)",
			a.CEX.ViolationCycle, a.CEX.AttemptCycle, b.CEX.ViolationCycle, b.CEX.AttemptCycle)
	}
	if len(a.CEX.Inputs) != len(b.CEX.Inputs) {
		return fmt.Sprintf("cex stimulus length %d vs %d", len(a.CEX.Inputs), len(b.CEX.Inputs))
	}
	for t := range a.CEX.Inputs {
		for i := range a.CEX.Inputs[t] {
			if a.CEX.Inputs[t][i] != b.CEX.Inputs[t][i] {
				return fmt.Sprintf("cex stimulus differs at cycle %d input %d: %#x vs %#x",
					t, i, a.CEX.Inputs[t][i], b.CEX.Inputs[t][i])
			}
		}
	}
	return ""
}

// replayViolation drives the recorded per-cycle inputs through a fresh
// simulator, then checks the sampled trace with the production trace
// checker (through the mutation seam), returning whether (and where) the
// first violation fired. This is the independent re-derivation of an FPV
// CEX: it shares no state with the engine that produced it, and the
// checking loop is the very one trace-based ABV uses in production.
func replayViolation(nl *verilog.Netlist, c *sva.Compiled, inputs [][]uint64) (bool, int, int, error) {
	s := sim.New(nl)
	var sampled [][]uint64
	for t, in := range inputs {
		if err := s.SetInputs(in); err != nil {
			// A stimulus the engine recorded but the simulator rejects is a
			// finding of its own; surface it instead of reporting a
			// no-violation replay.
			return false, 0, 0, fmt.Errorf("cycle %d: %w", t, err)
		}
		s.Settle()
		sampled = append(sampled, append([]uint64(nil), s.Env()...))
		s.Step()
	}
	violations, _ := fpv.CheckTraceCompiled(nl, c, sim.TraceFromSamples(nl, sampled), monitorStep)
	if len(violations) == 0 {
		return false, 0, 0, nil
	}
	return true, violations[0].ViolationCycle, violations[0].AttemptCycle, nil
}

// --- oracle 3: determinism across eval.Stream configurations ---

// selfCheckExamples are fixed in-context examples for the determinism
// runs: known-good assertions over the training arbiter, so oracle 3
// needs no miner pass.
func selfCheckExamples() []llm.Example {
	return []llm.Example{{
		Name:   "arb2",
		Source: bench.TrainArbiter,
		Assertions: []string{
			"req1 == 1 && req2 == 0 |-> gnt1 == 1;",
			"gnt2 == 1 |-> req2 == 1;",
		},
	}}
}

// checkDeterminism runs the generated corpus through eval.Stream in
// sequential, parallel and sharded configurations, each from purged
// memory caches, and compares the rendered outcome streams byte for
// byte. The parallel runs take designs in the dispatcher's cost order,
// not in corpus order, so this also pins the in-order reorder buffer;
// its mutation seam is eval.SchedIndexHook.
func (h *harness) checkDeterminism(ctx context.Context, corpus []bench.Design) (int, []Disagreement, error) {
	gen := eval.NewModelGenerator(llm.GPT4o())
	icl := selfCheckExamples()
	base := eval.RunOptions{
		Shots: 1, Seed: h.opt.Seed, UseCorrector: true,
		FPV: fpv.Options{MaxProductStates: 1500, MaxInputBits: 8,
			MaxInputSamples: 8, RandomRuns: 8, RandomDepth: 24, Seed: h.opt.Seed},
	}
	collect := func(opt eval.RunOptions) (string, error) {
		var sb strings.Builder
		for o, err := range eval.Stream(ctx, gen, icl, corpus, opt) {
			if err != nil {
				return "", err
			}
			renderOutcome(&sb, o)
		}
		return sb.String(), nil
	}

	// Each run starts from empty memory caches, so no run is answered
	// from another's verdict memo and every configuration verifies.
	runs := 0
	run := func(label string, opt eval.RunOptions) (string, error) {
		bench.DefaultElab.Purge()
		s, err := collect(opt)
		if err != nil {
			return "", fmt.Errorf("determinism %s run: %w", label, err)
		}
		runs++
		return s, nil
	}

	seqOpt := base
	seqOpt.Workers = 1
	seq, err := run("sequential", seqOpt)
	if err != nil {
		return runs, nil, err
	}
	parOpt := base
	parOpt.Workers = 4
	par, err := run("parallel", parOpt)
	if err != nil {
		return runs, nil, err
	}
	var shards strings.Builder
	for i := 0; i < 2; i++ {
		shOpt := base
		shOpt.Workers = 2
		shOpt.ShardIndex, shOpt.ShardCount = i, 2
		s, err := run(fmt.Sprintf("shard %d/2", i), shOpt)
		if err != nil {
			return runs, nil, err
		}
		shards.WriteString(s)
	}

	var ds []Disagreement
	if par != seq {
		ds = append(ds, Disagreement{Oracle: OracleDeterminism,
			Detail: "parallel eval.Stream differs from sequential at the same seed:\n" + firstDiff(seq, par)})
	}
	if shards.String() != seq {
		ds = append(ds, Disagreement{Oracle: OracleDeterminism,
			Detail: "concatenated shard streams differ from the unsharded stream:\n" + firstDiff(seq, shards.String())})
	}
	return runs, ds, nil
}

// renderOutcome serializes one DesignOutcome canonically for comparison.
func renderOutcome(sb *strings.Builder, o eval.DesignOutcome) {
	fmt.Fprintf(sb, "#%d %s|gen=%q|corr=%q|verdicts=", o.Index, o.Design, o.Generated, o.Corrected)
	for _, v := range o.Verdicts {
		sb.WriteString(v.String())
		sb.WriteByte(',')
	}
	fmt.Fprintf(sb, "|off=%d|gnd=%d|trunc=%v|err=%v:%q\n", o.OffTask, o.Grounded, o.Truncated, o.Errored, o.Err)
}

// firstDiff locates the first differing line of two renderings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
