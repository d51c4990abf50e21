package llm

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"assertionbench/internal/rtlgraph"
	"assertionbench/internal/sim"
	"assertionbench/internal/sva"
	"assertionbench/internal/verilog"
)

// Model is a simulated LLM: a profile (decoding settings + calibrated
// error channels) plus a trained n-gram language model.
type Model struct {
	Profile Profile
	LM      *NGram

	// lineage says how LM was trained; see Identity.
	lineage string
	cond    condMemo // LM conditioned per in-context example set
}

// New builds a foundational model: the n-gram is pretrained on the generic
// SVA corpus.
func New(p Profile) *Model {
	lm := NewNGram(NewVocab())
	lm.Train(pretrainCorpus)
	return &Model{Profile: p, LM: lm, lineage: "pretrained"}
}

// Identity is a digest of everything the model's output depends on
// besides the prompt and GenOptions: its profile and the lineage of its
// language model. Every New model is pretrained alike, so its identity
// follows from the profile; a Finetune result's lineage is the base
// model's identity, the fine-tuning options and a digest of the
// fine-tuning corpus. Models with equal identities generate identical
// output, whatever their names.
func (m *Model) Identity() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%#v", m.lineage, m.Profile)
	return hex.EncodeToString(h.Sum(nil))
}

// GenOptions configure one generation call.
type GenOptions struct {
	// Shots is the number of in-context examples the prompt was built
	// with (selects the profile's error channels).
	Shots int
	// Seed drives all sampling; same prompt + same seed = same output.
	Seed int64
}

// GenResult is the raw model output plus channel bookkeeping used by the
// ablation benches.
type GenResult struct {
	// Text is the raw completion (one assertion per line, plus whatever
	// off-task content leaked through).
	Text string
	// Lines are the individual output lines.
	Lines []string
	// OffTask counts off-task lines emitted.
	OffTask int
	// Grounded counts assertions that came from the design-behaviour pool.
	Grounded int
	// Corrupted counts assertions that received syntax noise.
	Corrupted int
}

// Generate produces assertions for the prompt's test design. The only
// error it returns is ctx.Err() when the context is canceled mid-call;
// model misbehaviour (off-task drift, truncation, corruption) is data,
// reported inside GenResult the way a real API would return it.
//
// Generate is safe for concurrent use on one shared *Model. In-context
// conditioning (LM trained on the kept examples' assertions, plus the
// identifiers those assertions leak) is built once per example set under
// the model's lock and read-only after that; each call samples from a view
// that shares the conditioned counts but owns its vocabulary. All sampling
// uses a rand.Rand seeded per call from opt.Seed, and the design-context
// cache is a locked map whose entries are deterministic in the design
// source and read-only after construction. The evaluation runner relies
// on this to share one model across its worker pool. Callers must not
// mutate Profile while Generate runs, nor mutate or replace LM once
// Generate has been called.
func (m *Model) Generate(ctx context.Context, prompt Prompt, opt GenOptions) (GenResult, error) {
	if err := ctx.Err(); err != nil {
		return GenResult{}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	params := m.Profile.At(opt.Shots)

	cond := m.cond.get(m.LM, prompt.Examples)
	lm := cond.lm.withOwnVocab()
	dctx := buildDesignCtx(prompt.TestSource)

	n := 3 + rng.Intn(5) // 3..7 assertions, matching the ICE density
	var res GenResult
	var tk Tokenizer
	budget := m.Profile.MaxTokens

	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return GenResult{}, err
		}
		var line string
		switch {
		case rng.Float64() < params.OffTask:
			line = m.offTaskLine(rng)
			res.OffTask++
		default:
			var a *sva.Assertion
			if rng.Float64() < params.Grounding && len(dctx.pool) > 0 {
				a = dctx.samplePool(lm, rng, m.Profile.Temperature)
				res.Grounded++
				if rng.Float64() < params.Confusion {
					a = confuse(a, rng)
				}
			} else {
				a = dctx.sampleUngrounded(lm, rng, m.Profile)
			}
			if a == nil {
				line = m.offTaskLine(rng)
				res.OffTask++
				break
			}
			line = a.String() + ";"
			line = applyCopyNoise(line, dctx, cond.leaked, params.CopyNoise, rng)
			if rng.Float64() < params.SyntaxNoise {
				line = corruptSyntax(line, rng)
				res.Corrupted++
			}
		}
		toks := tk.Tokenize(line)
		if budget >= 0 && len(toks) > budget {
			// Token budget exhausted mid-line: truncated output, exactly
			// the way a max_tokens cutoff manifests.
			line = tk.Detokenize(toks[:budget])
			res.Lines = append(res.Lines, line)
			break
		}
		budget -= len(toks)
		res.Lines = append(res.Lines, line)
	}
	res.Text = strings.Join(res.Lines, "\n")
	return res, nil
}

// maxConditioned bounds how many example sets a model keeps conditioned.
// A COTS sweep uses at most four per model (the full set and the suffixes
// a small context window keeps); callers with arbitrary examples must not
// grow the memo without bound.
const maxConditioned = 8

// conditioned is the example-only work of a Generate call: the language
// model trained on the kept examples' assertions, and the identifiers
// those assertions leak. Neither reads example names or sources, so the
// assertion lines in order are the whole key. Read-only once built.
type conditioned struct {
	lines  []string
	lm     *NGram
	leaked []string
}

// condMemo holds a model's conditioned example sets.
type condMemo struct {
	mu      sync.Mutex
	entries []*conditioned
}

// get returns base conditioned on examples, building it on first use.
// Past maxConditioned sets it conditions a private copy and keeps it out
// of the memo.
func (c *condMemo) get(base *NGram, examples []Example) *conditioned {
	var lines []string
	for _, ex := range examples {
		lines = append(lines, ex.Assertions...)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if slices.Equal(e.lines, lines) {
			return e
		}
	}
	lm := base.Clone()
	lm.Train(lines)
	e := &conditioned{lines: lines, lm: lm, leaked: harvestExampleSignals(lines)}
	if len(c.entries) < maxConditioned {
		c.entries = append(c.entries, e)
	}
	return e
}

func (m *Model) offTaskLine(rng *rand.Rand) string {
	if m.Profile.Family == "llama" && rng.Float64() < 0.6 {
		return offTaskJava[rng.Intn(len(offTaskJava))]
	}
	return offTaskProse[rng.Intn(len(offTaskProse))]
}

// --- design context ---

type sigInfo struct {
	name    string
	width   int
	isInput bool
	isReg   bool
}

type poolEntry struct {
	a       *sva.Assertion
	support int
	// toks caches the tokenized rendering: samplePool scores every entry
	// on every generation call, and the entries never change.
	toks []string
}

type designCtx struct {
	nl   *verilog.Netlist
	sigs []sigInfo
	pool []poolEntry
}

// maxDesignCtxs bounds ctxCache. A corpus run needs one context per
// design (100 for the benchmark), so the bound only matters to a
// long-lived process fed ever new sources: an insert that would pass it
// starts the cache over. A context is a pure function of its source, so
// a cleared one is rebuilt identical.
const maxDesignCtxs = 1024

// ctxCache memoizes design contexts: the grounded pool is a function of
// the design text only, so concurrent evaluations of many models share it.
// PurgeCaches leaves it alone: rebuilding every context would move that
// work into each freshly purged run.
var ctxCache struct {
	sync.Mutex
	m map[string]*designCtx
}

// buildDesignCtx returns the design context of source, building it on
// first use.
func buildDesignCtx(source string) *designCtx {
	ctxCache.Lock()
	ctx, ok := ctxCache.m[source]
	ctxCache.Unlock()
	if ok {
		return ctx
	}
	ctx = newDesignCtx(source)
	ctxCache.Lock()
	defer ctxCache.Unlock()
	if ctxCache.m == nil || len(ctxCache.m) >= maxDesignCtxs {
		ctxCache.m = map[string]*designCtx{}
	}
	ctxCache.m[source] = ctx
	return ctx
}

// newDesignCtx "reads" the test design the way the model sees it: parse
// it with the real front end; if that succeeds, simulate to build a pool
// of behaviour-consistent candidate assertions (the grounded channel). On
// any failure, fall back to surface-level identifier harvest.
func newDesignCtx(source string) *designCtx {
	ctx := &designCtx{}
	nl, err := verilog.ElaborateSource(source, "")
	if err != nil {
		ctx.sigs = harvestIdentifiers(source)
		return ctx
	}
	ctx.nl = nl
	for _, n := range nl.Nets {
		if n.IsClock || strings.Contains(n.Name, ".") {
			continue
		}
		ctx.sigs = append(ctx.sigs, sigInfo{name: n.Name, width: n.Width, isInput: n.IsInput, isReg: n.IsReg})
	}
	sort.Slice(ctx.sigs, func(i, j int) bool { return ctx.sigs[i].name < ctx.sigs[j].name })
	// Screening traces use design-derived seeds so the pool is a stable
	// property of the design, not of the caller.
	var traces []*sim.Trace
	for i := int64(0); i < 3; i++ {
		tr, err := sim.RandomTrace(nl, 160, 2, 0x5eed+i*7789)
		if err != nil {
			return ctx
		}
		traces = append(traces, tr)
	}
	ctx.pool = screenPool(nl, traces)
	return ctx
}

// screenPool instantiates temporal templates over dependency-related nets
// and keeps those consistent with every screening trace. No FPV here: the
// pool represents what a design-aware model would believe after reading
// the RTL (the CDFG/COI artifacts of Observation 4) and mentally
// simulating it; belief can still be wrong on states the traces missed.
func screenPool(nl *verilog.Netlist, traces []*sim.Trace) []poolEntry {
	g := rtlgraph.Build(nl)
	var small []int
	for _, n := range nl.Nets {
		if !n.IsClock && n.Width <= 4 && !strings.Contains(n.Name, ".") {
			small = append(small, n.Index)
		}
	}
	atomExpr := func(net int, val uint64) verilog.Expr {
		return &verilog.Binary{Op: "==",
			X: &verilog.Ident{Name: nl.Nets[net].Name},
			Y: &verilog.Number{Value: val, Width: nl.Nets[net].Width}}
	}
	vals := func(net int) []uint64 {
		seen := map[uint64]int{}
		for _, tr := range traces {
			for c := 0; c < tr.Len(); c++ {
				seen[tr.Value(c, net)]++
			}
		}
		out := make([]uint64, 0, len(seen))
		for v := range seen {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool {
			if seen[out[i]] != seen[out[j]] {
				return seen[out[i]] > seen[out[j]]
			}
			return out[i] < out[j]
		})
		if len(out) > 2 {
			out = out[:2]
		}
		return out
	}
	// screen checks an implication on every trace; it must never be
	// contradicted and must fire often enough to be believable.
	screen := func(anteNet int, anteVal uint64, consNet int, consVal uint64, lag int) (int, bool) {
		total := 0
		for _, tr := range traces {
			for c := 0; c+lag < tr.Len(); c++ {
				if tr.Value(c, anteNet) == anteVal {
					total++
					if tr.Value(c+lag, consNet) != consVal {
						return total, false
					}
				}
			}
		}
		return total, total >= 10
	}
	var pool []poolEntry
	add := func(a *sva.Assertion, support int) {
		pool = append(pool, poolEntry{a: a, support: support})
	}
	// Pairwise implications, restricted to dependency-related nets: the
	// antecedent must be inside the consequent's cone of influence (or
	// vice versa for backward witnesses).
	for _, b := range small {
		coi := g.ConeOfInfluence(b)
		for _, a := range small {
			if a == b || !coi[a] {
				continue
			}
			for _, va := range vals(a) {
				for _, vb := range vals(b) {
					for lag := 0; lag <= 1; lag++ {
						support, ok := screen(a, va, b, vb, lag)
						if !ok {
							continue
						}
						add(&sva.Assertion{
							Ante:       []sva.Step{{Expr: atomExpr(a, va)}},
							Cons:       []sva.Step{{Expr: atomExpr(b, vb)}},
							NonOverlap: lag == 1,
						}, support)
					}
				}
			}
		}
		if len(pool) > 150 {
			break
		}
	}
	// Reset templates: rst-like inputs clearing registers are the
	// assertions every design-aware generator writes first.
	for _, r := range nl.Inputs {
		if !isResetName(nl.Nets[r].Name) || nl.Nets[r].Width != 1 {
			continue
		}
		for _, q := range nl.Regs {
			if nl.Nets[q].Width > 8 || strings.Contains(nl.Nets[q].Name, ".") {
				continue
			}
			if support, ok := screen(r, 1, q, 0, 1); ok {
				add(&sva.Assertion{
					Ante:       []sva.Step{{Expr: atomExpr(r, 1)}},
					Cons:       []sva.Step{{Expr: atomExpr(q, 0)}},
					NonOverlap: true,
				}, support+20) // favored: reset properties dominate real usage
			}
		}
	}
	// Stability templates: enable-low holds state.
	for _, e := range nl.Inputs {
		ne := nl.Nets[e]
		if ne.Width != 1 || isResetName(ne.Name) {
			continue
		}
		for _, q := range nl.Regs {
			if strings.Contains(nl.Nets[q].Name, ".") || !g.ConeOfInfluence(q)[e] {
				continue
			}
			held := 0
			ok := true
			for _, tr := range traces {
				for c := 0; c+1 < tr.Len(); c++ {
					if tr.Value(c, e) == 0 && allResetsLow(nl, tr, c) {
						held++
						if tr.Value(c+1, q) != tr.Value(c, q) {
							ok = false
							break
						}
					}
				}
				if !ok {
					break
				}
			}
			if ok && held >= 10 {
				ante := atomExpr(e, 0)
				for _, r := range nl.Inputs {
					if isResetName(nl.Nets[r].Name) && nl.Nets[r].Width == 1 {
						ante = &verilog.Binary{Op: "&&", X: ante, Y: atomExpr(r, 0)}
					}
				}
				add(&sva.Assertion{
					Ante: []sva.Step{{Expr: ante}},
					Cons: []sva.Step{{Expr: &verilog.Call{Name: "$stable",
						Args: []verilog.Expr{&verilog.Ident{Name: nl.Nets[q].Name}}}}},
					NonOverlap: true,
				}, held)
			}
		}
	}
	sort.Slice(pool, func(i, j int) bool {
		if pool[i].support != pool[j].support {
			return pool[i].support > pool[j].support
		}
		return pool[i].a.String() < pool[j].a.String()
	})
	if len(pool) > 60 {
		pool = pool[:60]
	}
	var tk Tokenizer
	for i := range pool {
		pool[i].toks = tk.Tokenize(pool[i].a.String())
	}
	return pool
}

func isResetName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "rst") || strings.Contains(l, "reset") || strings.Contains(l, "clear")
}

func allResetsLow(nl *verilog.Netlist, tr *sim.Trace, c int) bool {
	for _, r := range nl.Inputs {
		if isResetName(nl.Nets[r].Name) && tr.Value(c, r) != 0 {
			return false
		}
	}
	return true
}

// samplePool draws a pool candidate weighted by language-model fluency.
func (ctx *designCtx) samplePool(lm *NGram, rng *rand.Rand, temp float64) *sva.Assertion {
	if len(ctx.pool) == 0 {
		return nil
	}
	weights := make([]float64, len(ctx.pool))
	sum := 0.0
	for i, p := range ctx.pool {
		score := lm.ScoreTokens(p.toks)
		w := math.Exp(-score / (2 * math.Max(temp, 0.1)))
		w *= float64(p.support)
		weights[i] = w
		sum += w
	}
	r := rng.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return clone(ctx.pool[i].a)
		}
	}
	return clone(ctx.pool[len(ctx.pool)-1].a)
}

// sampleUngrounded free-associates a plausible assertion from surface
// signals, with identifier choice steered by the language model.
func (ctx *designCtx) sampleUngrounded(lm *NGram, rng *rand.Rand, p Profile) *sva.Assertion {
	if len(ctx.sigs) == 0 {
		return nil
	}
	pick := func(prev2, prev1 string) sigInfo {
		names := make([]string, len(ctx.sigs))
		for i, s := range ctx.sigs {
			names[i] = s.name
		}
		name := lm.SampleToken(prev2, prev1, names, p.Temperature, p.TopP, rng)
		for _, s := range ctx.sigs {
			if s.name == name {
				return s
			}
		}
		return ctx.sigs[rng.Intn(len(ctx.sigs))]
	}
	val := func(s sigInfo) uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 & verilog.WidthMask(s.width)
		case 2:
			return verilog.WidthMask(s.width)
		default:
			return rng.Uint64() & verilog.WidthMask(s.width)
		}
	}
	atomOf := func(s sigInfo) verilog.Expr {
		return &verilog.Binary{Op: "==",
			X: &verilog.Ident{Name: s.name},
			Y: &verilog.Number{Value: val(s), Width: s.width}}
	}
	a := pick("<bos>", "<bos>")
	b := pick(a.name, "==")
	shape := rng.Float64()
	out := &sva.Assertion{}
	switch {
	case shape < 0.30: // a==v |-> b==v
		out.Ante = []sva.Step{{Expr: atomOf(a)}}
		out.Cons = []sva.Step{{Expr: atomOf(b)}}
	case shape < 0.60: // a==v |=> b==v
		out.Ante = []sva.Step{{Expr: atomOf(a)}}
		out.Cons = []sva.Step{{Expr: atomOf(b)}}
		out.NonOverlap = true
	case shape < 0.75: // conjunction antecedent
		c := pick(b.name, "&&")
		out.Ante = []sva.Step{{Expr: &verilog.Binary{Op: "&&", X: atomOf(a), Y: atomOf(c)}}}
		out.Cons = []sva.Step{{Expr: atomOf(b)}}
		out.NonOverlap = rng.Intn(2) == 0
	case shape < 0.82 && a.width == 1: // $rose
		out.Ante = []sva.Step{{Expr: &verilog.Call{Name: "$rose", Args: []verilog.Expr{&verilog.Ident{Name: a.name}}}}}
		out.Cons = []sva.Step{{Expr: atomOf(b)}}
		out.NonOverlap = true
	case shape < 0.90: // ranged bounded-response consequent
		out.Ante = []sva.Step{{Expr: atomOf(a)}}
		out.Cons = []sva.Step{{Delay: 1, Expr: atomOf(b)}}
		out.ConsDelaySpan = 1 + rng.Intn(2)
	default: // two-cycle antecedent
		c := pick(b.name, "##")
		out.Ante = []sva.Step{{Expr: atomOf(a)}, {Delay: 1, Expr: atomOf(c)}}
		out.Cons = []sva.Step{{Expr: atomOf(b)}}
		out.NonOverlap = true
	}
	return out
}

func clone(a *sva.Assertion) *sva.Assertion {
	// Assertions are immutable once built except for confusion mutation,
	// which replaces nodes; re-parse is the simplest deep copy.
	b, err := sva.Parse(a.String())
	if err != nil {
		return a
	}
	return b
}

// confuse applies one semantic perturbation: plausible, wrong.
func confuse(a *sva.Assertion, rng *rand.Rand) *sva.Assertion {
	b := clone(a)
	switch rng.Intn(3) {
	case 0: // flip a consequent value
		if bin, ok := b.Cons[0].Expr.(*verilog.Binary); ok {
			if num, ok := bin.Y.(*verilog.Number); ok {
				num.Value = (num.Value + 1) & verilog.WidthMask(maxInt(num.Width, 1))
			}
		}
	case 1: // overlap <-> non-overlap
		b.NonOverlap = !b.NonOverlap
	default: // negate the consequent comparison
		if bin, ok := b.Cons[0].Expr.(*verilog.Binary); ok {
			switch bin.Op {
			case "==":
				bin.Op = "!="
			case "!=":
				bin.Op = "=="
			}
		}
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- noise channels ---

// harvestExampleSignals collects identifiers from the in-context example
// assertions: the classic leak source when a model copies from the wrong
// part of its prompt.
func harvestExampleSignals(assertions []string) []string {
	var tk Tokenizer
	seen := map[string]bool{}
	var out []string
	for _, as := range assertions {
		for _, tok := range tk.Tokenize(as) {
			if isWordStart(tok[0]) && tok[0] != '$' && !seen[tok] {
				seen[tok] = true
				out = append(out, tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// harvestIdentifiers extracts plausible signal names from unparseable
// source text.
func harvestIdentifiers(source string) []sigInfo {
	var tk Tokenizer
	seen := map[string]bool{}
	var out []sigInfo
	for _, tok := range tk.Tokenize(source) {
		if len(tok) == 0 || !isWordStart(tok[0]) || tok[0] == '$' {
			continue
		}
		if verilogKeyword(tok) || seen[tok] {
			continue
		}
		seen[tok] = true
		out = append(out, sigInfo{name: tok, width: 1})
	}
	return out
}

func verilogKeyword(s string) bool {
	switch s {
	case "module", "endmodule", "input", "output", "inout", "wire", "reg",
		"always", "assign", "begin", "end", "if", "else", "case", "casez",
		"endcase", "default", "posedge", "negedge", "or", "and", "not",
		"parameter", "localparam", "integer", "initial", "for", "function",
		"endfunction", "genvar", "generate", "endgenerate", "signed":
		return true
	}
	return false
}

// applyCopyNoise miscopies identifiers: per-identifier with probability
// rate, replace with a typo or a leaked example-design signal.
func applyCopyNoise(line string, ctx *designCtx, leaked []string, rate float64, rng *rand.Rand) string {
	if rate <= 0 {
		return line
	}
	var tk Tokenizer
	toks := tk.Tokenize(line)
	names := map[string]bool{}
	for _, s := range ctx.sigs {
		names[s.name] = true
	}
	for i, tok := range toks {
		if !names[tok] || rng.Float64() >= rate {
			continue
		}
		if len(leaked) > 0 && rng.Float64() < 0.4 {
			toks[i] = leaked[rng.Intn(len(leaked))]
			continue
		}
		toks[i] = typo(tok, rng)
	}
	return tk.Detokenize(toks)
}

// typo produces an edit-distance-1 corruption.
func typo(name string, rng *rand.Rand) string {
	if len(name) < 2 {
		return name + "_"
	}
	switch rng.Intn(3) {
	case 0: // drop a char
		i := rng.Intn(len(name))
		return name[:i] + name[i+1:]
	case 1: // swap adjacent
		i := rng.Intn(len(name) - 1)
		b := []byte(name)
		b[i], b[i+1] = b[i+1], b[i]
		return string(b)
	default: // suffix
		return name + "_r"
	}
}

// corruptSyntax applies one syntax corruption drawn from the error modes
// the paper catalogues. Roughly three quarters of the modes are ones the
// rule-based corrector can repair; the rest defeat it.
func corruptSyntax(line string, rng *rand.Rand) string {
	line = strings.TrimSuffix(strings.TrimSpace(line), ";")
	mode := rng.Intn(8)
	switch mode {
	case 0: // drop a closing paren (corrector: balance)
		if i := strings.LastIndexByte(line, ')'); i >= 0 {
			line = line[:i] + line[i+1:]
		} else {
			line = "(" + line
		}
	case 1: // '=' for '==' (corrector: canonicalize)
		line = strings.Replace(line, "==", "=", 1)
	case 2: // '|>' for '|->' (corrector: canonicalize)
		line = strings.Replace(line, "|->", "|>", 1)
		line = strings.Replace(line, "|=>", "|>", 1)
	case 3: // '#N' for '##N' (corrector: canonicalize)
		if strings.Contains(line, "##") {
			line = strings.Replace(line, "##", "#", 1)
		} else {
			line += " #1"
		}
	case 4: // stray property-block tail (corrector: strip wrappers)
		line += " endproperty"
	case 5: // '&&&' (corrector: canonicalize)
		if strings.Contains(line, "&&") {
			line = strings.Replace(line, "&&", "&&&", 1)
		} else {
			line = strings.Replace(line, "|", "||", 1)
		}
	case 6: // keyword splice mid-expression (unfixable)
		toks := strings.SplitN(line, " ", 2)
		if len(toks) == 2 {
			line = toks[0] + " begin " + toks[1]
		} else {
			line = "begin " + line
		}
	default: // drop the implication operator entirely (unfixable)
		line = strings.Replace(line, "|->", "", 1)
		line = strings.Replace(line, "|=>", "", 1)
	}
	return line + ";"
}
