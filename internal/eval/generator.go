package eval

import (
	"context"
	"fmt"

	"assertionbench/internal/bench"
	"assertionbench/internal/fpv"
	"assertionbench/internal/llm"
	"assertionbench/internal/mine"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// The runner's two pluggable stages. A Generator produces candidate
// assertions for one design (a simulated LLM, a fine-tuned model, or a
// classical miner — the paper's Fig. 4 stage 2 and the GOLDMINE/HARM
// baselines it compares against); a Verifier decides each candidate's
// fate (the Fig. 4 stage 4 FPV engine, or any stand-in). Everything else
// in the pipeline — prompt/ICL handling, the corrector, metrics, the
// worker pool and its determinism guarantees — is shared across sources,
// which is what makes miner-vs-LLM comparisons apples-to-apples.

// GenOptions parameterize one per-design generation call.
type GenOptions struct {
	// Shots is the number of in-context examples supplied.
	Shots int
	// Seed is the per-design composed seed: a pure function of the run
	// seed, the design's global corpus index, and the shot count. Equal
	// inputs must produce equal outputs for the runner's determinism
	// contract to hold.
	Seed int64
}

// GenOutput is what a Generator hands the rest of the pipeline.
type GenOutput struct {
	// Assertions are the candidate lines (one assertion per entry).
	Assertions []string
	// OffTask and Grounded are channel bookkeeping for ablation analysis;
	// generators without the concepts leave them zero.
	OffTask  int
	Grounded int
}

// Generator is an assertion source. Implementations must be safe for
// concurrent use (the worker pool shares one) and deterministic in
// (design, examples, GenOptions).
type Generator interface {
	Name() string
	Generate(ctx context.Context, d bench.Design, icl []llm.Example, opt GenOptions) (GenOutput, error)
}

// ModelGenerator adapts a simulated LLM to the Generator interface: it
// renders the paper's Fig. 5 prompt, samples the model, and splits the
// raw completion into candidate lines.
type ModelGenerator struct {
	Model *llm.Model
}

// NewModelGenerator builds the Generator for one model profile.
func NewModelGenerator(p llm.Profile) ModelGenerator {
	return ModelGenerator{Model: llm.New(p)}
}

func (g ModelGenerator) Name() string { return g.Model.Profile.Name }

func (g ModelGenerator) Generate(ctx context.Context, d bench.Design, icl []llm.Example, opt GenOptions) (GenOutput, error) {
	prompt := llm.BuildPrompt(icl, d.Source, g.Model.Profile.ContextWindow)
	r, err := g.Model.Generate(ctx, prompt, llm.GenOptions{Shots: opt.Shots, Seed: opt.Seed})
	if err != nil {
		return GenOutput{}, err
	}
	return GenOutput{
		Assertions: sva.SplitAssertions(r.Text),
		OffTask:    r.OffTask,
		Grounded:   r.Grounded,
	}, nil
}

// MinerFunc is the shape shared by mine.GoldMine, mine.Harm and
// mine.Security.
type MinerFunc func(ctx context.Context, nl *verilog.Netlist, opt mine.Options) ([]mine.Mined, error)

// MinerGenerator adapts a classical miner to the Generator interface, so
// GOLDMINE/HARM run through the exact same pipeline (corrector, FPV,
// metrics, worker pool) as the LLMs they are compared against. The
// in-context examples are ignored — miners read the RTL, not a prompt.
type MinerGenerator struct {
	name string
	fn   MinerFunc
	opt  mine.Options
}

// NewMinerGenerator wraps an arbitrary miner. The zero opt fields default
// per mine.Options; opt.Seed is overridden per design by the runner's
// composed seed so mined output follows the same determinism contract as
// model output.
func NewMinerGenerator(name string, fn MinerFunc, opt mine.Options) MinerGenerator {
	return MinerGenerator{name: name, fn: fn, opt: opt}
}

// GoldMineGenerator is the GOLDMINE-style miner as an assertion source.
func GoldMineGenerator(opt mine.Options) MinerGenerator {
	return NewMinerGenerator("GOLDMINE", mine.GoldMine, opt)
}

// HarmGenerator is the HARM-style miner as an assertion source.
func HarmGenerator(opt mine.Options) MinerGenerator {
	return NewMinerGenerator("HARM", mine.Harm, opt)
}

func (g MinerGenerator) Name() string { return g.name }

func (g MinerGenerator) Generate(ctx context.Context, d bench.Design, _ []llm.Example, opt GenOptions) (GenOutput, error) {
	nl, err := bench.Elaborate(d)
	if err != nil {
		return GenOutput{}, err
	}
	mopt := g.opt
	mopt.Seed = opt.Seed
	mined, err := g.fn(ctx, nl, mopt)
	if err != nil {
		return GenOutput{}, fmt.Errorf("miner %s on %s: %w", g.name, d.Name, err)
	}
	out := GenOutput{Assertions: make([]string, 0, len(mined))}
	for _, m := range mined {
		out.Assertions = append(out.Assertions, m.Assertion.String()+";")
	}
	// Mined assertions are behaviour-derived by construction.
	out.Grounded = len(out.Assertions)
	return out, nil
}

// Verifier classifies one candidate assertion against an elaborated
// design. d is the benchmark entry the netlist came from, for
// implementations that work from source rather than netlists.
//
// A Verifier instance is NOT required to be safe for concurrent use: the
// runner builds one per worker via RunOptions.NewVerifier.
type Verifier interface {
	Verify(ctx context.Context, d bench.Design, nl *verilog.Netlist, assertion string, opt fpv.Options) fpv.Result
}

// BatchVerifier is the optional batched extension of Verifier: verify a
// design's whole candidate list in one call, so implementations can
// amortize design-state exploration across the batch. The runner uses it
// when available (verdicts are identical to verifying one assertion at a
// time).
type BatchVerifier interface {
	VerifyBatch(ctx context.Context, d bench.Design, nl *verilog.Netlist, assertions []string, opt fpv.Options) []fpv.Result
}

// KeyedVerifier is implemented by a Verifier that names what its
// results depend on besides the design and the assertion. The runner
// journals outcomes, and Resume serves them, only for a keyed verifier:
// a record's key carries VerifierKey, so a record one verifier decided
// is never served to a run with another.
type KeyedVerifier interface {
	// VerifierKey returns the verifier's identity in a run whose FPV
	// options are opt, or "" when it has none. Verifiers with equal keys
	// must return equal results for every design and assertion.
	VerifierKey(opt fpv.Options) string
}

// EngineKey is the verifier key of the built-in FPV engine verifying
// with opt: the engine's results are a pure function of the netlist,
// the assertion and the options it verifies with.
func EngineKey(opt fpv.Options) string {
	return fmt.Sprintf("fpv\x00%#v", opt)
}

type engineVerifier struct {
	eng *fpv.Engine
}

func (engineVerifier) VerifierKey(opt fpv.Options) string { return EngineKey(opt) }

func (v engineVerifier) Verify(ctx context.Context, _ bench.Design, nl *verilog.Netlist, assertion string, opt fpv.Options) fpv.Result {
	return v.eng.VerifySource(ctx, nl, assertion, opt)
}

func (v engineVerifier) VerifyBatch(ctx context.Context, _ bench.Design, nl *verilog.Netlist, assertions []string, opt fpv.Options) []fpv.Result {
	return v.eng.VerifyAll(ctx, nl, assertions, opt)
}

// NewEngineVerifier returns the default FPV-backed Verifier: one reusable
// fpv.Engine, reset between calls, sharing the process-wide reachability
// graph cache. Not safe for concurrent use.
func NewEngineVerifier() Verifier {
	eng := fpv.NewEngine()
	eng.Graphs = bench.DefaultElab.Graphs()
	return engineVerifier{eng: eng}
}
