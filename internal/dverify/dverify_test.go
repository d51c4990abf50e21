package dverify

import (
	"context"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/eval"
	"assertionbench/internal/fpv"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// The CI seed-matrix job varies this flag so three independent seeds run
// under the race detector (see .github/workflows/ci.yml).
var selfCheckSeed = flag.Int64("selfcheck-seed", 1, "seed for TestSelfCheckShortMode")

func TestSelfCheckShortMode(t *testing.T) {
	opt := Options{Scenarios: 25, PropsPerDesign: 2, Seed: *selfCheckSeed,
		TraceCount: 1, TraceCycles: 24, MaxShrinkSteps: 8}
	report, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if report.Scenarios != 25 || report.Properties != 50 {
		t.Fatalf("report counts wrong: %s", report)
	}
	if !report.OK() {
		for _, d := range report.Disagreements {
			t.Errorf("disagreement: %s", d)
		}
	}
	if report.DeterminismRuns != 4 {
		t.Errorf("determinism runs = %d, want 4", report.DeterminismRuns)
	}
	// Every oracle must have checked something and every speed layer
	// saved work, as fuzzcheck requires.
	for _, s := range report.Idle() {
		t.Error(s)
	}
}

func TestRunDeterministicReport(t *testing.T) {
	opt := Options{Scenarios: 8, PropsPerDesign: 2, Seed: 42, TraceCount: 1,
		TraceCycles: 16, SkipDeterminism: true}
	a, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same options, different reports:\n%s\n%s", a, b)
	}
}

// TestMutatedMonitorIsCaught is the harness's own mutation test: a
// deliberately injected monitor bug (violations silently swallowed) must
// be caught by oracle 2 — the FPV engine still finds counter-examples,
// and their simulator replays no longer observe the violation.
func TestMutatedMonitorIsCaught(t *testing.T) {
	orig := monitorStep
	defer func() { monitorStep = orig }()
	monitorStep = func(m *sva.Monitor, hist [][]uint64) sva.Outcome {
		out := m.Step(hist)
		out.Violated = false // the injected bug: drop every violation
		return out
	}
	report, err := Run(context.Background(), Options{
		// The early seed-1 scenarios are CEX-dense and every CEX replay
		// trips this mutation (across several oracles), so a couple of
		// scenarios suffice — and every finding pays a shrink pass, so
		// more would just burn time.
		Scenarios: 2, PropsPerDesign: 3, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleAgreement && strings.Contains(d.Detail, "does not violate the monitor") {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected monitor bug was not caught by oracle 2; report: %s", report)
	}
}

// A second mutation: violations reported one attempt too old must trip
// the exact-cycle replay check.
func TestMutatedViolationAgeIsCaught(t *testing.T) {
	orig := monitorStep
	defer func() { monitorStep = orig }()
	monitorStep = func(m *sva.Monitor, hist [][]uint64) sva.Outcome {
		out := m.Step(hist)
		if out.Violated {
			out.ViolatedAge++
		}
		return out
	}
	report, err := Run(context.Background(), Options{
		// Same scenario economics as TestMutatedMonitorIsCaught above.
		Scenarios: 2, PropsPerDesign: 3, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := false
	for _, d := range report.Disagreements {
		if d.Oracle == OracleAgreement && strings.Contains(d.Detail, "replays at cycle") {
			caught = true
		}
	}
	if !caught {
		t.Fatalf("injected attempt-age bug was not caught; report: %s", report)
	}
}

func TestShrinkProducesMinimalRepro(t *testing.T) {
	// Force a disagreement via the mutated monitor and verify the shrunk
	// genome still reproduces it and is no larger than the original.
	orig := monitorStep
	defer func() { monitorStep = orig }()
	monitorStep = func(m *sva.Monitor, hist [][]uint64) sva.Outcome {
		out := m.Step(hist)
		out.Violated = false
		return out
	}
	h := &harness{opt: Options{PropsPerDesign: 3, TraceCount: 1, TraceCycles: 16, MaxShrinkSteps: 16}.withDefaults()}
	spec := bench.FuzzSpec{Family: "mixed", A: 6, B: 4, Seed: 99}
	res := h.checkScenario(context.Background(), spec, 7)
	if len(res.disagreements) == 0 {
		t.Skip("mutation did not trip on this genome (no CEX among generated properties)")
	}
	d := res.disagreements[0]
	shrunk := h.shrink(context.Background(), d, 7)
	if shrunk.Spec.A > spec.A || shrunk.Spec.B > spec.B {
		t.Errorf("shrink grew the genome: %s -> %s", spec, shrunk.Spec)
	}
	// The shrunk genome must still reproduce under the same prop seed.
	again := h.checkScenario(context.Background(), shrunk.Spec, 7)
	if _, ok := firstOfOracle(again.disagreements, shrunk.Oracle); !ok {
		t.Errorf("shrunk spec %s does not reproduce the disagreement", shrunk.Spec)
	}
}

func TestDumpWritesReproPair(t *testing.T) {
	dir := t.TempDir()
	h := &harness{opt: Options{DumpDir: dir}.withDefaults()}
	d := Disagreement{
		Oracle:   OracleAgreement,
		Spec:     bench.FuzzSpec{Family: "counter", A: 2},
		Property: "en |-> ##1 tc",
		Detail:   "synthetic",
	}
	base, err := h.dump(d, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, err := os.ReadFile(base + ".v")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verilog.Parse(string(v)); err != nil {
		t.Errorf("dumped design does not parse: %v", err)
	}
	svaText, err := os.ReadFile(base + ".sva")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svaText), d.Property) {
		t.Errorf("dumped .sva missing property: %q", svaText)
	}
	if _, err := os.Stat(filepath.Join(dir, "disagree_003_agreement.txt")); err != nil {
		t.Errorf("missing .txt repro: %v", err)
	}
}

func TestGeneratedPropertiesCompile(t *testing.T) {
	// Every generated property must parse and compile against its design:
	// that is the generator contract the agreement oracle relies on.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		spec := bench.RandomFuzzSpec(rng)
		d := spec.Build()
		nl, err := verilog.ElaborateSource(d.Source, d.Name)
		if err != nil {
			t.Fatalf("spec %s does not elaborate: %v", spec, err)
		}
		for _, src := range genProps(nl, int64(i), 4) {
			a, err := sva.Parse(src)
			if err != nil {
				t.Fatalf("spec %s: property %q does not parse: %v", spec, src, err)
			}
			if _, err := sva.Compile(a, nl); err != nil {
				t.Fatalf("spec %s: property %q does not compile: %v", spec, src, err)
			}
		}
	}
}

func TestCanceledRunSurfacesContextError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Options{Scenarios: 4})
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
}

// TestMutatedConeVerifierIsCaught: a deliberately injected cone-path bug
// (counter-example stimulus zeroed — what an over-aggressive projection
// that cuts a driving input would record) must be caught by oracle 6's
// independent replay of every cone-side CEX on the full design.
func TestMutatedConeVerifierIsCaught(t *testing.T) {
	orig := coneVerify
	defer func() { coneVerify = orig }()
	coneVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
		r := orig(e, ctx, nl, c, opt)
		if r.Status == fpv.StatusCEX && len(r.CEX.Inputs) > 0 {
			// The injected bug: the witness stimulus loses every driving
			// input, as if the cone had cut a net the property depends on.
			cex := *r.CEX
			cex.Inputs = make([][]uint64, len(r.CEX.Inputs))
			for t := range cex.Inputs {
				cex.Inputs[t] = make([]uint64, len(r.CEX.Inputs[t]))
			}
			r.CEX = &cex
		}
		return r
	}
	report, err := Run(context.Background(), Options{
		// Every CEX-status property trips the replay check under this
		// mutation, and each finding pays a shrink pass, so a couple of
		// scenarios suffice.
		Scenarios: 2, PropsPerDesign: 2, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleCone && strings.Contains(d.Detail, "cone-reduced CEX") {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected cone bug was not caught by oracle 6's replay; report: %s", report)
	}
}

// TestMutatedStaticVerifierIsCaught: a deliberately injected static-pass
// bug (vacuity flipped on statically discharged verdicts — what an
// unsound abstract fixpoint would report) must be caught by oracle 8's
// semantic comparison against the pure-search reference.
func TestMutatedStaticVerifierIsCaught(t *testing.T) {
	orig := staticVerify
	defer func() { staticVerify = orig }()
	staticVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
		r := orig(e, ctx, nl, c, opt)
		if r.Static {
			r.NonVacuous = !r.NonVacuous // the injected bug: unsound discharge
		}
		return r
	}
	report, err := Run(context.Background(), Options{
		// Enough scenarios for the generator's statically-decidable arm
		// (~1 in 8 properties) to yield a proven or vacuous discharge,
		// which the deep-budget exhaustive comparison then contradicts.
		Scenarios: 8, PropsPerDesign: 3, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.StaticDischarged == 0 {
		t.Fatalf("no property was statically discharged, the mutation never engaged; report: %s", report)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleStatic {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected static-pass bug was not caught by oracle 8; report: %s", report)
	}
}

// TestStaticDriftOnUndischargedPropertyIsCaught: a property the static
// pass does not discharge runs the pure search, so oracle 8 holds it to
// field identity. One extra visited state on the static side (a pass
// that changed the search it fell through to) must be reported, although
// the verdicts still agree semantically.
func TestStaticDriftOnUndischargedPropertyIsCaught(t *testing.T) {
	orig := staticVerify
	defer func() { staticVerify = orig }()
	staticVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
		r := orig(e, ctx, nl, c, opt)
		if !r.Static {
			r.States++ // the injected bug
		}
		return r
	}
	nl, err := verilog.ElaborateSource(`module cnt(input clk, input rst, input en, output reg [1:0] count);
always @(posedge clk)
  if (rst) count <= 0;
  else if (en) count <= count + 1;
endmodule`, "cnt")
	if err != nil {
		t.Fatal(err)
	}
	src := "en == 1 |=> count == 3"
	a, err := sva.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sva.Compile(a, nl)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{stEng: fpv.NewEngine(), pureEng: fpv.NewEngine()}
	checks, discharged, ds := h.checkStatic(context.Background(), nl, bench.FuzzSpec{}, []*sva.Compiled{c}, []string{src}, 1)
	if checks == 0 || discharged != 0 {
		t.Fatalf("checks=%d discharged=%d, want an undischarged property checked", checks, discharged)
	}
	if len(ds) == 0 || !strings.Contains(ds[0].Detail, "did not discharge") {
		t.Fatalf("injected drift was not caught by oracle 8: %+v", ds)
	}
}

// TestMutatedBatchVerifierIsCaught: a deliberately injected batched-path
// bug (results reported one state too high — the kind of drift a broken
// shared graph would produce) must be caught by oracle 5's full result
// comparison against unshared batches of one.
func TestMutatedBatchVerifierIsCaught(t *testing.T) {
	orig := batchVerify
	defer func() { batchVerify = orig }()
	batchVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, cs []*sva.Compiled, opt fpv.Options) []fpv.Result {
		rs := orig(e, ctx, nl, cs, opt)
		for i := range rs {
			if rs[i].Status != fpv.StatusError {
				rs[i].States++ // the injected bug: a skewed exploration count
			}
		}
		return rs
	}
	report, err := Run(context.Background(), Options{
		// Every property trips the oracle under this mutation, and each
		// finding pays a shrink pass, so a couple of scenarios suffice.
		Scenarios: 2, PropsPerDesign: 2, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleBatch && strings.Contains(d.Detail, "batched FPV and its batch of one disagree") {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected batch bug was not caught by oracle 5; report: %s", report)
	}
}

// TestMutatedSchedulerIsCaught: a deliberately misrouted reorder buffer
// (two slots swapped via eval.SchedIndexHook — what a broken index
// mapping between dispatch order and corpus order would do) must be
// caught by oracle 3's byte comparison against the sequential walk. The
// swap is a bijection, so every slot still fills and the mutated runs
// complete; only the stream contents betray the bug.
func TestMutatedSchedulerIsCaught(t *testing.T) {
	eval.SchedIndexHook = func(i int) int {
		switch i {
		case 0:
			return 1
		case 1:
			return 0
		}
		return i
	}
	defer func() { eval.SchedIndexHook = nil }()
	report, err := Run(context.Background(), Options{
		// Oracle 3 needs only a tiny corpus: any two
		// adjacent designs render differently, so the swap is visible on
		// the first line. Per-design oracles never touch the hook.
		Scenarios: 3, PropsPerDesign: 1, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleDeterminism {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected reorder-buffer bug was not caught by oracle 3; report: %s", report)
	}
}

// TestCorruptedStoreBlobIsCaught: a blob-corrupting astore.LoadHook
// (well-formed payload, silently flipped sampled support values — what
// an undetected media error past the checksum would look like) must be
// caught by oracle 9's comparison against the store-free reference. The
// reference side never touches the store, so the corruption cannot
// cancel out of the comparison.
func TestCorruptedStoreBlobIsCaught(t *testing.T) {
	orig := astore.LoadHook
	defer func() { astore.LoadHook = orig }()
	astore.LoadHook = func(kind, key string, payload []byte) []byte {
		if kind != astore.KindGraph {
			return payload
		}
		g, _, err := fpv.DecodeGraph(payload)
		if err != nil {
			return payload
		}
		// Flip the low bit of every support-row word in place. The rows
		// follow the version word, six header scalars and the counted
		// Support, Packed, EdgeOff and Dst arrays (int32 arrays pack two
		// entries per word), and hold one row per representative edge.
		off := 7 + 1 + len(g.Support) + 1 + len(g.Packed) +
			1 + (len(g.EdgeOff)+1)/2 + 1 + (len(g.Dst)+1)/2 + 1
		out := append([]byte(nil), payload...)
		for i := 0; i < len(g.Dedup)*len(g.Support); i++ {
			out[8*(off+i)] ^= 1
		}
		return out
	}
	report, err := Run(context.Background(), Options{
		// The corruption skews every sampled support value the warm side
		// evaluates, so a handful of scenarios suffice for a verdict or
		// state-count mismatch at one of the budgets.
		Scenarios: 4, PropsPerDesign: 2, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.StoreLoads == 0 {
		t.Fatalf("no blob was served from disk, the corruption never engaged; report: %s", report)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleStore && strings.Contains(d.Detail, "disk-served") {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("injected store corruption was not caught by oracle 9's result comparison; report: %s", report)
	}
}

// TestDroppedRetryIsCaught: a retry layer that silently gives up
// (eval.RetryDropHook discarding every re-attempt — what a broken
// transient classification or an off-by-one retry bound would do) must
// be caught by oracle 11's phase-1 comparison: the chaos run's bounded
// transient faults are no longer absorbed, so a design streams errored
// where the fault-free reference has verdicts.
func TestDroppedRetryIsCaught(t *testing.T) {
	eval.RetryDropHook = func(index, attempt int) bool { return true }
	defer func() { eval.RetryDropHook = nil }()
	report, err := Run(context.Background(), Options{
		// The fault oracle needs only a tiny corpus: it places its three
		// faults by seed and compares whole streams, so the first dropped
		// retry is visible immediately. Per-design oracles never retry.
		Scenarios: 3, PropsPerDesign: 1, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleFault {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("dropped retries were not caught by oracle 11; report: %s", report)
	}
}

// TestDroppedManifestEntryIsCaught: a run manifest that silently loses
// entries (eval.ManifestDropHook discarding every record — what a
// failed write-behind or a key mismatch would look like) must be caught
// by oracle 11's verify-call accounting: the resume re-verifies designs
// the manifest should have decided. Stream comparison alone cannot see
// this — re-verification reproduces the same verdicts — which is
// exactly why the oracle counts verifier calls.
func TestDroppedManifestEntryIsCaught(t *testing.T) {
	eval.ManifestDropHook = func(index int) bool { return true }
	defer func() { eval.ManifestDropHook = nil }()
	report, err := Run(context.Background(), Options{
		Scenarios: 3, PropsPerDesign: 1, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleFault {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("dropped manifest entries were not caught by oracle 11; report: %s", report)
	}
}

// TestMutatedVerdictMemoIsCaught: a verdict memo keyed on text alone
// (what a key that drops the options or the netlist would do) serves the
// deep budget's verdicts to the starved pass, and oracle 5's text pass
// must catch it against the cache-less engine.
func TestMutatedVerdictMemoIsCaught(t *testing.T) {
	orig := memoVerify
	defer func() { memoVerify = orig }()
	memo := map[string]fpv.Result{}
	memoVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, srcs []string, opt fpv.Options) []fpv.Result {
		out := make([]fpv.Result, len(srcs))
		var miss []string
		var at []int
		for i, s := range srcs {
			if r, ok := memo[s]; ok {
				out[i] = r
				continue
			}
			miss = append(miss, s)
			at = append(at, i)
		}
		for k, r := range orig(e, ctx, nl, miss, opt) {
			out[at[k]] = r
			memo[miss[k]] = r
		}
		return out
	}
	report, err := Run(context.Background(), Options{
		Scenarios: 2, PropsPerDesign: 2, Seed: 1, TraceCount: 1,
		TraceCycles: 16, MaxShrinkSteps: 2, SkipDeterminism: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for _, d := range report.Disagreements {
		if d.Oracle == OracleBatch && strings.Contains(d.Detail, "memoized FPV and the cache-less engine disagree") {
			caught++
		}
	}
	if caught == 0 {
		t.Fatalf("a memo keyed on text alone was not caught by oracle 5; report: %s", report)
	}
}

// gateGenome is a small design on which every speed layer saves work
// against its oracle's reference: batching, the cone and the store each
// save graph expansions, and the static pass discharges a property. The
// pure-overhead tests below run one oracle's check on it directly, so
// each costs milliseconds rather than a Run.
var gateGenome = bench.FuzzSpec{Family: "counter", A: 3, Seed: 745889025152609679}

const gatePropSeed = 4799592365572805539

// gateScenario is gateGenome elaborated, with its properties, on a fresh
// harness whose store lives in a temp dir.
type gateScenario struct {
	h            *harness
	nl           *verilog.Netlist
	source, name string
	cs           []*sva.Compiled
	srcs, props  []string
}

func newGateScenario(t *testing.T) gateScenario {
	t.Helper()
	store, err := astore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{opt: Options{PropsPerDesign: 2}.withDefaults(), store: store}
	h.initEngines()
	d := gateGenome.Build()
	nl, err := verilog.ElaborateSource(d.Source, d.Name)
	if err != nil {
		t.Fatal(err)
	}
	props := genProps(nl, gatePropSeed, h.opt.PropsPerDesign)
	cs, srcs := compileProps(nl, props)
	return gateScenario{h: h, nl: nl, source: d.Source, name: d.Name, cs: cs, srcs: srcs, props: props}
}

// requireGateFails checks the shared report check on a report in which
// every oracle ran and every layer saved work except the one a test
// measured at zero: the check must name that layer and nothing else.
func requireGateFails(t *testing.T, zero func(*Report), layer string) {
	t.Helper()
	r := Report{Properties: 1, BackendChecks: 1, BatchChecks: 1, ConeChecks: 1, StaticChecks: 1,
		StoreChecks: 1, StoreLoads: 1, DeterminismRuns: 1, FaultChecks: 1,
		BatchSaved: 1, ConeSaved: 1, StoreSaved: 1, StaticDischarged: 1}
	if idle := r.Idle(); len(idle) != 0 {
		t.Fatalf("a report in which every layer saved work fails the check: %q", idle)
	}
	zero(&r)
	if idle := r.Idle(); len(idle) != 1 || !strings.Contains(idle[0], layer) {
		t.Fatalf("the report check names %q, want only %s", idle, layer)
	}
}

// TestPureOverheadBatchIsCaught: a batched verifier that purges its
// cache and verifies each property alone agrees with every reference
// and breaks no expansion bound, so only the batch gate can see it:
// oracle 5 must report zero expansions saved, and the report check
// must fail the run.
func TestPureOverheadBatchIsCaught(t *testing.T) {
	ctx := context.Background()
	g := newGateScenario(t)
	if _, saved, ds := g.h.checkBatch(ctx, g.nl, gateGenome, g.cs, g.srcs, g.props, gatePropSeed); saved <= 0 || len(ds) > 0 {
		t.Fatalf("test premise: batching saved %d expansions with %d disagreements", saved, len(ds))
	}
	orig := batchVerify
	defer func() { batchVerify = orig }()
	batchVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, cs []*sva.Compiled, opt fpv.Options) []fpv.Result {
		var out []fpv.Result
		for i := range cs {
			e.Graphs.Purge()
			out = append(out, orig(e, ctx, nl, cs[i:i+1], opt)...)
		}
		return out
	}
	g = newGateScenario(t)
	_, saved, ds := g.h.checkBatch(ctx, g.nl, gateGenome, g.cs, g.srcs, g.props, gatePropSeed)
	if saved != 0 || len(ds) > 0 {
		t.Fatalf("unshared batches saved %d expansions with disagreements %v, want 0 and none", saved, ds)
	}
	requireGateFails(t, func(r *Report) { r.BatchSaved = saved }, "batching")
}

// TestPureOverheadConeIsCaught: a cone path that searches the full
// design agrees with the reference, so only the cone gate can see it.
func TestPureOverheadConeIsCaught(t *testing.T) {
	ctx := context.Background()
	g := newGateScenario(t)
	if _, saved, ds := g.h.checkCone(ctx, g.nl, gateGenome, g.cs, g.srcs, gatePropSeed); saved <= 0 || len(ds) > 0 {
		t.Fatalf("test premise: the cone saved %d expansions with %d disagreements", saved, len(ds))
	}
	orig := coneVerify
	defer func() { coneVerify = orig }()
	coneVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
		opt.FullDesign = true
		return orig(e, ctx, nl, c, opt)
	}
	_, saved, ds := g.h.checkCone(ctx, g.nl, gateGenome, g.cs, g.srcs, gatePropSeed)
	if saved != 0 || len(ds) > 0 {
		t.Fatalf("a full-design cone path saved %d expansions with disagreements %v, want 0 and none", saved, ds)
	}
	requireGateFails(t, func(r *Report) { r.ConeSaved = saved }, "cone")
}

// TestPureOverheadStaticPassIsCaught: a static path that never runs the
// pass searches exactly as the reference does, so only the discharge
// gate can see it.
func TestPureOverheadStaticPassIsCaught(t *testing.T) {
	ctx := context.Background()
	g := newGateScenario(t)
	if _, discharged, ds := g.h.checkStatic(ctx, g.nl, gateGenome, g.cs, g.srcs, gatePropSeed); discharged <= 0 || len(ds) > 0 {
		t.Fatalf("test premise: the static pass discharged %d properties with %d disagreements", discharged, len(ds))
	}
	orig := staticVerify
	defer func() { staticVerify = orig }()
	staticVerify = func(e *fpv.Engine, ctx context.Context, nl *verilog.Netlist, c *sva.Compiled, opt fpv.Options) fpv.Result {
		opt.NoStatic = true
		return orig(e, ctx, nl, c, opt)
	}
	_, discharged, ds := g.h.checkStatic(ctx, g.nl, gateGenome, g.cs, g.srcs, gatePropSeed)
	if discharged != 0 || len(ds) > 0 {
		t.Fatalf("a pass-free static path discharged %d properties with disagreements %v, want 0 and none", discharged, ds)
	}
	requireGateFails(t, func(r *Report) { r.StaticDischarged = discharged }, "static pass")
}

// TestPureOverheadStoreIsCaught: graph blobs that load but never decode
// leave the warm pass rebuilding every graph. Its results still equal
// the store-free reference and the store still counts disk loads, so
// only the store gate can see it.
func TestPureOverheadStoreIsCaught(t *testing.T) {
	ctx := context.Background()
	g := newGateScenario(t)
	if _, _, saved, ds := g.h.checkStore(ctx, g.nl, g.source, g.name, gateGenome, g.cs, g.srcs, gatePropSeed); saved <= 0 || len(ds) > 0 {
		t.Fatalf("test premise: the store saved %d expansions with %d disagreements", saved, len(ds))
	}
	orig := astore.LoadHook
	defer func() { astore.LoadHook = orig }()
	astore.LoadHook = func(kind, key string, payload []byte) []byte {
		if kind == astore.KindGraph {
			return payload[:len(payload)/2]
		}
		return payload
	}
	g = newGateScenario(t)
	_, loads, saved, ds := g.h.checkStore(ctx, g.nl, g.source, g.name, gateGenome, g.cs, g.srcs, gatePropSeed)
	if loads == 0 {
		t.Fatal("no blob was served from disk, the truncation never engaged")
	}
	if saved != 0 || len(ds) > 0 {
		t.Fatalf("undecodable graph blobs saved %d expansions with disagreements %v, want 0 and none", saved, ds)
	}
	requireGateFails(t, func(r *Report) { r.StoreSaved = saved }, "store")
}
