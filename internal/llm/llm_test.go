package llm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestTokenizeDetokenizeRoundTrip(t *testing.T) {
	var tk Tokenizer
	cases := []string{
		"req1 == 1 && req2 == 0 |-> gnt1 == 1;",
		"a ##1 b |=> $past(c, 2) != 3'h5",
		"module m(input a); assign b = ~a; endmodule",
	}
	for _, src := range cases {
		toks := tk.Tokenize(src)
		out := tk.Detokenize(toks)
		if tk.Detokenize(tk.Tokenize(out)) != out {
			t.Errorf("detokenize not stable for %q -> %q", src, out)
		}
		// Token multiset must survive.
		toks2 := tk.Tokenize(out)
		if len(toks) != len(toks2) {
			t.Errorf("token count changed: %v vs %v", toks, toks2)
		}
	}
}

func TestTokenizeNeverLosesOperators(t *testing.T) {
	var tk Tokenizer
	toks := tk.Tokenize("a|->b |=> c ## 1 == != && ||")
	want := []string{"a", "|->", "b", "|=>", "c", "##", "1", "==", "!=", "&&", "||"}
	if len(toks) != len(want) {
		t.Fatalf("got %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizeKeepsNonASCIIBytes(t *testing.T) {
	var tk Tokenizer
	src := "x = é;"
	toks := tk.Tokenize(src)
	want := []string{"x", "=", "\xc3", "\xa9", ";"}
	if !reflect.DeepEqual(toks, want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", src, toks, want)
	}
	if again := tk.Tokenize(tk.Detokenize(toks)); !reflect.DeepEqual(again, toks) {
		t.Errorf("round trip through Detokenize gives %q, want %q", again, toks)
	}
	if n := tk.Count(src); n != len(want) {
		t.Errorf("Count = %d, want %d", n, len(want))
	}
}

func TestTokenizerTotal(t *testing.T) {
	// Property: tokenizing arbitrary bytes terminates and loses no
	// word characters.
	var tk Tokenizer
	f := func(data []byte) bool {
		s := string(data)
		toks := tk.Tokenize(s)
		var kept, orig int
		for _, tok := range toks {
			for i := 0; i < len(tok); i++ {
				if isWordCont(tok[i]) {
					kept++
				}
			}
		}
		for i := 0; i < len(s); i++ {
			if isWordCont(s[i]) {
				orig++
			}
		}
		return kept == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVocab(t *testing.T) {
	v := NewVocab()
	if v.ID("<bos>") != TokBOS || v.ID("<eos>") != TokEOS {
		t.Fatal("special tokens misplaced")
	}
	a := v.Add("req")
	if v.Add("req") != a {
		t.Error("Add must be idempotent")
	}
	if v.Token(a) != "req" {
		t.Error("Token round trip failed")
	}
	if v.ID("unknown") != -1 {
		t.Error("unknown token should be -1")
	}
}

func TestNGramProbabilityProperties(t *testing.T) {
	lm := NewNGram(NewVocab())
	lm.Train(pretrainCorpus)
	f := func(a, b, c uint16) bool {
		n := lm.vocab.Size()
		p := lm.Prob(int(a)%n, int(b)%n, int(c)%n)
		return p > 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNGramTrainingLowersPerplexity(t *testing.T) {
	lm := NewNGram(NewVocab())
	lm.Train(pretrainCorpus)
	domain := []string{
		"w_en == 1 && full == 0 |=> count != 0;",
		"r_en == 1 && empty == 0 |=> count != 8;",
		"rst == 1 |=> wptr == 0;",
	}
	before := lm.Perplexity(domain)
	for i := 0; i < 5; i++ {
		lm.Train(domain)
	}
	after := lm.Perplexity(domain)
	if after >= before {
		t.Errorf("training did not lower perplexity: %.2f -> %.2f", before, after)
	}
}

func TestNGramSamplingDeterministic(t *testing.T) {
	lm := NewNGram(NewVocab())
	lm.Train(pretrainCorpus)
	cands := []string{"req", "gnt", "rst", "count"}
	a := lm.SampleToken("==", "1", cands, 1.0, 0.95, rand.New(rand.NewSource(5)))
	b := lm.SampleToken("==", "1", cands, 1.0, 0.95, rand.New(rand.NewSource(5)))
	if a != b {
		t.Errorf("same seed produced %q vs %q", a, b)
	}
	found := false
	for _, c := range cands {
		if a == c {
			found = true
		}
	}
	if !found {
		t.Errorf("sampled token %q outside candidate set", a)
	}
}

func TestNGramGreedyPicksArgmax(t *testing.T) {
	lm := NewNGram(NewVocab())
	lm.Train([]string{"a b c;", "a b c;", "a b d;"})
	rng := rand.New(rand.NewSource(1))
	// After context "a b", c is twice as likely as d; temperature ~0 must
	// always pick c.
	for i := 0; i < 20; i++ {
		got := lm.SampleToken("a", "b", []string{"c", "d"}, 0, 0.95, rng)
		if got != "c" {
			t.Fatalf("greedy decode picked %q, want c", got)
		}
	}
}

func TestNGramCloneIsolation(t *testing.T) {
	lm := NewNGram(NewVocab())
	lm.Train(pretrainCorpus)
	before := lm.Perplexity(pretrainCorpus[:5])
	clone := lm.Clone()
	for i := 0; i < 10; i++ {
		clone.Train([]string{"zzz qqq www;"})
	}
	after := lm.Perplexity(pretrainCorpus[:5])
	if math.Abs(before-after) > 1e-9 {
		t.Error("training a clone mutated the original model")
	}
}

func TestBuildPromptFormat(t *testing.T) {
	examples := []Example{
		{Name: "arb2", Source: "module arb2(a);\n// comment\ninput a;\nendmodule", Assertions: []string{"a == 1 |-> a == 1;"}},
	}
	p := BuildPrompt(examples, "module t(b);\ninput b;\nendmodule", 0)
	if !strings.HasPrefix(p.Text, TaskDescription) {
		t.Error("prompt must begin with the task description")
	}
	for _, frag := range []string{"Program 1:", "Assertions 1:", "Test Program:", "Test Assertions:"} {
		if !strings.Contains(p.Text, frag) {
			t.Errorf("prompt missing %q", frag)
		}
	}
	if strings.Contains(p.Text, "// comment") || strings.Contains(p.TestSource, "\n") {
		t.Error("comments and newlines must be squeezed (paper Sec. IV)")
	}
}

func TestBuildPromptTruncation(t *testing.T) {
	big := Example{Name: "big", Source: strings.Repeat("wire aaa; ", 300), Assertions: []string{"aaa == 1 |-> aaa == 1;"}}
	small := Example{Name: "small", Source: "module s(x); input x; endmodule", Assertions: []string{"x == 0 |-> x == 0;"}}
	p := BuildPrompt([]Example{big, small}, "module t(y); input y; endmodule", 200)
	if p.TruncatedExamples == 0 {
		t.Fatal("context window should have forced truncation")
	}
	if len(p.Examples) == 0 || p.Examples[len(p.Examples)-1].Name != "small" {
		t.Error("truncation must drop the oldest examples first")
	}
	if p.Tokens > 200 {
		t.Errorf("prompt still %d tokens after truncation", p.Tokens)
	}
}

func TestSqueeze(t *testing.T) {
	src := "a // line\nb /* block\nmore */ c\n\n  d"
	got := Squeeze(src)
	if got != "a b c d" {
		t.Errorf("Squeeze = %q, want %q", got, "a b c d")
	}
}

const testDesign = `
module counter(clk, rst, en, count);
input clk, rst, en;
output [3:0] count;
reg [3:0] count;
always @(posedge clk or posedge rst)
  if (rst) count <= 4'b0;
  else if (en) count <= count + 1;
endmodule
`

func testExamples() []Example {
	return []Example{
		{Name: "arb2", Source: "module arb2(r, g); input r; output g; assign g = r; endmodule",
			Assertions: []string{"r == 1 |-> g == 1;", "r == 0 |-> g == 0;"}},
		{Name: "tff", Source: "module tff(clk, t, q); input clk, t; output q; reg q; always @(posedge clk) if (t) q <= ~q; endmodule",
			Assertions: []string{"t == 0 |=> $stable(q);"}},
		{Name: "ha", Source: "module ha(a, b, s); input a, b; output s; assign s = a ^ b; endmodule",
			Assertions: []string{"a == b |-> s == 0;"}},
		{Name: "fs", Source: "module fs(a, b, d); input a, b; output d; assign d = a ^ b; endmodule",
			Assertions: []string{"a == 1 && b == 0 |-> d == 1;"}},
		{Name: "fa", Source: "module fa(a, b, c); input a, b; output c; assign c = a & b; endmodule",
			Assertions: []string{"a == 0 |-> c == 0;"}},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := New(GPT4o())
	p := BuildPrompt(testExamples(), testDesign, m.Profile.ContextWindow)
	a, err := m.Generate(context.Background(), p, GenOptions{Shots: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Generate(context.Background(), p, GenOptions{Shots: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Text != b.Text {
		t.Fatalf("same seed, different output:\n%s\n---\n%s", a.Text, b.Text)
	}
	c, err := m.Generate(context.Background(), p, GenOptions{Shots: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Text == c.Text {
		t.Error("different seeds produced identical output (suspicious)")
	}
}

func TestGenerateRespectsDesignSignals(t *testing.T) {
	// With all noise channels off, generated assertions must reference
	// only the test design's signals.
	p := GPT4o()
	p.K1 = ShotParams{Grounding: 1}
	p.K5 = p.K1
	m := New(p)
	prompt := BuildPrompt(testExamples(), testDesign, m.Profile.ContextWindow)
	gen, err := m.Generate(context.Background(), prompt, GenOptions{Shots: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range gen.Lines {
		for _, bad := range []string{"gnt", "req1"} {
			if strings.Contains(line, bad) {
				t.Errorf("noise-free generation leaked example signal %q: %s", bad, line)
			}
		}
	}
	if gen.Grounded == 0 {
		t.Error("pure-grounding profile generated nothing from the pool")
	}
}

func TestGenerateOffTaskChannel(t *testing.T) {
	p := Llama3()
	p.K1 = ShotParams{OffTask: 1}
	m := New(p)
	prompt := BuildPrompt(testExamples(), testDesign, m.Profile.ContextWindow)
	gen, err := m.Generate(context.Background(), prompt, GenOptions{Shots: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if gen.OffTask != len(gen.Lines) {
		t.Errorf("OffTask=1 profile produced %d off-task of %d lines", gen.OffTask, len(gen.Lines))
	}
}

func TestGenerateTokenBudget(t *testing.T) {
	p := GPT35()
	p.MaxTokens = 12
	m := New(p)
	prompt := BuildPrompt(testExamples(), testDesign, m.Profile.ContextWindow)
	gen, err := m.Generate(context.Background(), prompt, GenOptions{Shots: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var tk Tokenizer
	total := 0
	for _, l := range gen.Lines {
		total += len(tk.Tokenize(l))
	}
	if total > 12+4 { // final line may be cut exactly at the boundary
		t.Errorf("token budget exceeded: %d tokens emitted", total)
	}
}

func TestGenerateUnparseableDesignFallsBack(t *testing.T) {
	m := New(GPT35())
	prompt := BuildPrompt(testExamples(), "totally not verilog %%% module ???", m.Profile.ContextWindow)
	gen, err := m.Generate(context.Background(), prompt, GenOptions{Shots: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Lines) == 0 {
		t.Error("generation must degrade gracefully on unparseable designs")
	}
}

func TestProfileInterpolation(t *testing.T) {
	p := GPT35()
	k3 := p.At(3)
	if k3.Grounding <= p.K1.Grounding || k3.Grounding >= p.K5.Grounding {
		t.Errorf("3-shot grounding %f not between 1-shot %f and 5-shot %f",
			k3.Grounding, p.K1.Grounding, p.K5.Grounding)
	}
	if p.At(0) != p.K1 || p.At(9) != p.K5 {
		t.Error("At must clamp outside [1,5]")
	}
}

func TestCOTSProfilesCalibrationShape(t *testing.T) {
	// The calibrated channels must encode the paper's observations
	// structurally (the full numeric check is the eval test).
	if g35 := GPT35(); g35.K5.Grounding <= 2*g35.K1.Grounding {
		t.Error("GPT-3.5 must roughly double its grounding 1->5 shot (Obs 1)")
	}
	l3 := Llama3()
	if l3.K5.SyntaxNoise <= l3.K1.SyntaxNoise || l3.K5.OffTask <= l3.K1.OffTask {
		t.Error("LLaMa3 must degrade with more shots (Obs 1/2)")
	}
	if cl := CodeLlama2(); cl.CodeAffinity <= Llama3().CodeAffinity {
		t.Error("CodeLLaMa must have higher code affinity than LLaMa3 (Obs 5)")
	}
}

// finetuneCorpus builds a corpus large enough for stable held-out
// perplexity measurement (the real one has ~80 mined design examples).
func finetuneCorpus() []Example {
	sigs := []string{"req", "gnt", "valid", "ready", "full", "empty", "busy", "done", "start", "stop"}
	var out []Example
	for i, a := range sigs {
		for j, b := range sigs {
			if i == j {
				continue
			}
			out = append(out, Example{
				Name: a + "_" + b,
				Assertions: []string{
					a + " == 1 |-> " + b + " == 0;",
					a + " == 0 |=> " + b + " == 1;",
					"rst == 1 |=> " + a + " == 0;",
				},
			})
		}
	}
	return out
}

func TestFinetuneImprovesModel(t *testing.T) {
	base := New(CodeLlama2())
	corpus := finetuneCorpus()
	tuned, report := Finetune(base, corpus, FinetuneOptions{Epochs: 5, Seed: 2})
	if report.PerplexityAfter >= report.PerplexityBefore {
		t.Errorf("fine-tuning did not reduce perplexity: %.1f -> %.1f",
			report.PerplexityBefore, report.PerplexityAfter)
	}
	if len(report.PerEpoch) != 5 {
		t.Errorf("expected 5 per-epoch records, got %d", len(report.PerEpoch))
	}
	if !tuned.Profile.Finetuned {
		t.Error("tuned profile must be marked Finetuned")
	}
	if tuned.Profile.K5.Grounding <= base.Profile.K5.Grounding {
		t.Error("fine-tuning must raise grounding (Obs 5)")
	}
	if tuned.Profile.K5.SyntaxNoise >= base.Profile.K5.SyntaxNoise {
		t.Error("fine-tuning must reduce syntax noise")
	}
	if tuned.Profile.K5.SyntaxNoise == 0 {
		t.Error("fine-tuning must not nullify syntax errors (Obs 6)")
	}
}

func TestFinetuneAffinityScaling(t *testing.T) {
	corpus := finetuneCorpus()
	_, repCode := Finetune(New(CodeLlama2()), corpus, FinetuneOptions{Epochs: 5, Seed: 2})
	_, repText := Finetune(New(Llama3()), corpus, FinetuneOptions{Epochs: 5, Seed: 2})
	if repCode.Gain <= repText.Gain {
		t.Errorf("code-pretrained base must gain more: %.3f vs %.3f (Obs 5)",
			repCode.Gain, repText.Gain)
	}
	tunedText, _ := Finetune(New(Llama3()), corpus, FinetuneOptions{Epochs: 5, Seed: 2})
	if tunedText.Profile.K1.Confusion <= Llama3().K1.Confusion {
		t.Error("low-affinity base must show the 1-shot overfit regression (paper Obs 5)")
	}
}

// loopFinetune is Finetune written as the epoch loop its closed form
// replaces: every epoch shuffles the train lines afresh, re-tokenizes and
// trains on them, and re-scores the held-out slice.
func loopFinetune(base *Model, corpus []Example, opt FinetuneOptions) (*Model, FinetuneReport) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	holdout, train := splitCorpus(corpus, opt.HoldoutFraction, rng)
	lm := base.LM.Clone()
	report := FinetuneReport{PerplexityBefore: lm.Perplexity(holdout)}
	for e := 0; e < opt.Epochs; e++ {
		epoch := append([]string{}, train...)
		rng.Shuffle(len(epoch), func(i, j int) { epoch[i], epoch[j] = epoch[j], epoch[i] })
		lm.Train(epoch)
		report.PerEpoch = append(report.PerEpoch, lm.Perplexity(holdout))
	}
	report.PerplexityAfter = lm.Perplexity(holdout)
	return finetuned(base, corpus, opt, lm, report)
}

// sameFinetune returns Finetune's report and how its result differs from
// loopFinetune's: every report float bit for bit, and the language model
// (vocabulary included), profile and identity by deep equality.
func sameFinetune(base *Model, corpus []Example, opt FinetuneOptions) (FinetuneReport, error) {
	got, gotRep := Finetune(base, corpus, opt)
	want, wantRep := loopFinetune(base, corpus, opt)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(gotRep.PerplexityBefore, wantRep.PerplexityBefore):
		return gotRep, fmt.Errorf("PerplexityBefore %v, loop %v", gotRep.PerplexityBefore, wantRep.PerplexityBefore)
	case !same(gotRep.PerplexityAfter, wantRep.PerplexityAfter):
		return gotRep, fmt.Errorf("PerplexityAfter %v, loop %v", gotRep.PerplexityAfter, wantRep.PerplexityAfter)
	case !same(gotRep.Gain, wantRep.Gain):
		return gotRep, fmt.Errorf("Gain %v, loop %v", gotRep.Gain, wantRep.Gain)
	case len(gotRep.PerEpoch) != len(wantRep.PerEpoch):
		return gotRep, fmt.Errorf("%d epochs reported, loop %d", len(gotRep.PerEpoch), len(wantRep.PerEpoch))
	}
	for i := range gotRep.PerEpoch {
		if !same(gotRep.PerEpoch[i], wantRep.PerEpoch[i]) {
			return gotRep, fmt.Errorf("epoch %d perplexity %v, loop %v", i+1, gotRep.PerEpoch[i], wantRep.PerEpoch[i])
		}
	}
	switch {
	case !reflect.DeepEqual(got.LM, want.LM):
		return gotRep, fmt.Errorf("language model differs from the loop's")
	case !reflect.DeepEqual(got.Profile, want.Profile):
		return gotRep, fmt.Errorf("profile %+v, loop %+v", got.Profile, want.Profile)
	case got.Identity() != want.Identity():
		return gotRep, fmt.Errorf("identity differs from the loop's")
	}
	return gotRep, nil
}

// TestFinetuneMatchesEpochLoop: counting the train lines once and scaling
// by the epoch gives the epoch loop's model and report bit for bit. The
// second corpus renames every signal, so its lines add eleven tokens to
// the pretrained vocabulary and their ids depend on the order the first
// epoch encodes the lines in; finetuneCorpus adds only "stop".
func TestFinetuneMatchesEpochLoop(t *testing.T) {
	renamed := finetuneCorpus()
	for i := range renamed {
		for j, a := range renamed[i].Assertions {
			renamed[i].Assertions[j] = strings.ReplaceAll(a, " ==", "_q ==")
		}
	}
	for _, p := range []Profile{CodeLlama2(), Llama3(), GPT4o()} {
		base := New(p)
		for name, corpus := range map[string][]Example{"finetuneCorpus": finetuneCorpus(), "renamed": renamed} {
			for _, epochs := range []int{-1, 1, 2, 20} {
				for _, seed := range []int64{1, 2} {
					for _, hold := range []float64{0.25, 0.9} {
						opt := FinetuneOptions{Epochs: epochs, Seed: seed, HoldoutFraction: hold}
						if _, err := sameFinetune(base, corpus, opt); err != nil {
							t.Errorf("%s on %s, %+v: %v", p.Name, name, opt, err)
						}
					}
				}
			}
		}
	}
}

// TestFinetuneWithoutHoldout: a corpus too small for one held-out line at
// the default fraction measures no improvement, so the gain is 0 and the
// annealed profile stays finite.
func TestFinetuneWithoutHoldout(t *testing.T) {
	corpus := []Example{{Name: "tiny", Assertions: []string{
		"req == 1 |-> gnt == 1;", "rst == 1 |=> gnt == 0;", "gnt == 1 |-> req == 1;",
	}}}
	for _, p := range []Profile{CodeLlama2(), Llama3()} {
		tuned, report := Finetune(New(p), corpus, FinetuneOptions{})
		if report.Gain != 0 {
			t.Errorf("%s: gain %v with no held-out lines, want 0", p.Name, report.Gain)
		}
		for _, sp := range []ShotParams{tuned.Profile.K1, tuned.Profile.K5} {
			v := reflect.ValueOf(sp)
			for i := 0; i < v.NumField(); i++ {
				if f := v.Field(i).Float(); math.IsNaN(f) || math.IsInf(f, 0) {
					t.Errorf("%s: %s = %v", p.Name, v.Type().Field(i).Name, f)
				}
			}
		}
	}
}

func TestHarvestExampleSignals(t *testing.T) {
	got := harvestExampleSignals(testExamples()[0].Assertions)
	want := map[string]bool{"r": true, "g": true}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected harvested signal %q", s)
		}
		delete(want, s)
	}
	if len(want) != 0 {
		t.Errorf("missing signals: %v", want)
	}
}

func TestCorruptSyntaxAlwaysChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	line := "req == 1 && ack == 0 |-> ##1 done == 1;"
	for i := 0; i < 100; i++ {
		got := corruptSyntax(line, rng)
		if got == line {
			t.Fatalf("corruption %d left the line unchanged", i)
		}
	}
}

// TestConditioningMemoIsExact interleaves example sets and designs on one
// shared Model and checks every result against a fresh model, which
// conditions from scratch. The sets cover the full set, the suffixes a
// small context window keeps, a disjoint set, and more sets than the memo
// holds; designs alternate so each one's signal names are interned between
// uses of the same conditioned set.
func TestConditioningMemoIsExact(t *testing.T) {
	// Noise-free, half grounded: every line is drawn through the language
	// model, by pool scoring or by identifier sampling.
	p := GPT4o()
	p.K1 = ShotParams{Grounding: 0.5}
	p.K5 = p.K1
	designs := []string{testDesign, wideDesign("u", 24), wideDesign("v", 24),
		"module b(x, y, s); input x, y; output s; assign s = x ^ y;\nendmodule",
		"totally not verilog %%% module ???"}
	full := testExamples()
	type prompted struct {
		examples []Example
		window   int
	}
	sets := []prompted{{full, 0}}
	for drop := 1; drop < len(full); drop++ {
		// The window the kept suffix fills exactly: one more example no
		// longer fits.
		sets = append(sets, prompted{full, BuildPrompt(full[drop:], designs[0], 0).Tokens})
	}
	sets = append(sets, prompted{finetuneCorpus()[:3], 0})
	for i := 0; i <= maxConditioned; i++ {
		sets = append(sets, prompted{finetuneCorpus()[10+i : 12+i], 0})
	}

	shared := New(p)
	ctx := context.Background()
	calls := 0
	for round := 0; round < 2; round++ {
		for si, set := range sets {
			for di, d := range designs {
				prompt := BuildPrompt(set.examples, d, set.window)
				if set.window > 0 && di == 0 && prompt.TruncatedExamples != si {
					t.Fatalf("set %d: window %d dropped %d examples, want %d", si, set.window, prompt.TruncatedExamples, si)
				}
				opt := GenOptions{Shots: len(set.examples), Seed: int64(100*round + 10*si + di)}
				got, err := shared.Generate(ctx, prompt, opt)
				if err != nil {
					t.Fatal(err)
				}
				want, err := New(p).Generate(ctx, prompt, opt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d set %d design %d: memoized conditioning diverged\nwant %q\ngot  %q", round, si, di, want.Text, got.Text)
				}
				calls++
			}
		}
	}
	if n := len(shared.cond.entries); n != maxConditioned {
		t.Errorf("memo holds %d example sets after %d prompted ones, want the bound %d", n, len(sets), maxConditioned)
	}
	if shared.cond.get(shared.LM, full) != shared.cond.get(shared.LM, full) {
		t.Error("the full example set is conditioned again instead of reused")
	}
	t.Logf("%d interleaved calls matched fresh models", calls)
}

// wideDesign has n inputs and n registers named after prefix, so sampling
// interns many identifiers the pretrained vocabulary lacks.
func wideDesign(prefix string, n int) string {
	var ports, decls, body strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ports, ", %si%d, %sq%d", prefix, i, prefix, i)
		fmt.Fprintf(&decls, "input %si%d; output %sq%d; reg %sq%d;\n", prefix, i, prefix, i, prefix, i)
		fmt.Fprintf(&body, "  %sq%d <= %si%d ^ %si%d;\n", prefix, i, prefix, i, prefix, (i+1)%n)
	}
	return "module " + prefix + "wide(clk" + ports.String() + ");\ninput clk;\n" + decls.String() +
		"always @(posedge clk) begin\n" + body.String() + "end\nendmodule"
}

// TestGenerateConcurrentSafeAndDeterministic exercises the concurrency
// contract the evaluation runner depends on: many goroutines sharing one
// Model (hitting its memoized in-context conditioning with two example
// sets, and the shared design-context cache on the same and on different
// designs) must race-cleanly produce exactly the output a sequential
// caller gets for the same (prompt, seed).
func TestGenerateConcurrentSafeAndDeterministic(t *testing.T) {
	designs := []string{
		"module a(clk, rst, q); input clk, rst; output q; reg q;\nalways @(posedge clk or posedge rst) if (rst) q <= 0; else q <= ~q;\nendmodule",
		"module b(x, y, s); input x, y; output s; assign s = x ^ y;\nendmodule",
	}
	exampleSets := [][]Example{{{
		Name:       "t_ff",
		Source:     "module t_ff(clk, rst, t, q); input clk, rst, t; output q; reg q;\nalways @(posedge clk or posedge rst) if (rst) q <= 0; else if (t) q <= ~q;\nendmodule",
		Assertions: []string{"rst == 1 |=> q == 0;"},
	}}, testExamples()}

	type call struct {
		set, design int
		seed        int64
	}
	var calls []call
	for e := range exampleSets {
		for d := range designs {
			for s := int64(1); s <= 8; s++ {
				calls = append(calls, call{e, d, s})
			}
		}
	}
	generate := func(m *Model, c call) GenResult {
		p := BuildPrompt(exampleSets[c.set], designs[c.design], m.Profile.ContextWindow)
		r, _ := m.Generate(context.Background(), p, GenOptions{Shots: len(exampleSets[c.set]), Seed: c.seed})
		return r
	}
	sequential := New(GPT4o())
	want := make([]GenResult, len(calls))
	for i, c := range calls {
		want[i] = generate(sequential, c)
	}

	// A second model, so its example sets are conditioned under contention.
	shared := New(GPT4o())
	got := make([]GenResult, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = generate(shared, c)
		}()
	}
	wg.Wait()
	for i, c := range calls {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Errorf("call %d (set %d, design %d, seed %d): concurrent output diverged\nwant %q\ngot  %q",
				i, c.set, c.design, c.seed, want[i].Text, got[i].Text)
		}
	}
}

// TestModelIdentityFollowsLineage: models built alike share an identity,
// and a different profile, fine-tuning base, epoch count, seed or corpus
// changes it, although every fine-tuned CodeLLaMa 2 carries one name.
func TestModelIdentityFollowsLineage(t *testing.T) {
	if New(GPT4o()).Identity() != New(GPT4o()).Identity() {
		t.Error("two pretrained GPT-4o models differ in identity")
	}
	if New(GPT4o()).Identity() == New(GPT35()).Identity() {
		t.Error("GPT-4o and GPT-3.5 share an identity")
	}
	corpus := finetuneCorpus()
	tune := func(base Profile, c []Example, opt FinetuneOptions) string {
		m, _ := Finetune(New(base), c, opt)
		return m.Identity()
	}
	ref := tune(CodeLlama2(), corpus, FinetuneOptions{Epochs: 2, Seed: 2})
	if tune(CodeLlama2(), corpus, FinetuneOptions{Epochs: 2, Seed: 2}) != ref {
		t.Error("equal fine-tuning gave different identities")
	}
	for what, id := range map[string]string{
		"base":   tune(Llama3(), corpus, FinetuneOptions{Epochs: 2, Seed: 2}),
		"epochs": tune(CodeLlama2(), corpus, FinetuneOptions{Epochs: 3, Seed: 2}),
		"seed":   tune(CodeLlama2(), corpus, FinetuneOptions{Epochs: 2, Seed: 3}),
		"corpus": tune(CodeLlama2(), corpus[1:], FinetuneOptions{Epochs: 2, Seed: 2}),
	} {
		if id == ref {
			t.Errorf("fine-tuning with another %s kept the identity", what)
		}
	}
}

// TestExamplesDigestFramesFields: moving bytes from one field to the next
// changes the digest.
func TestExamplesDigestFramesFields(t *testing.T) {
	digests := map[string]bool{}
	for _, exs := range [][]Example{
		{{Name: "ab", Source: "c"}},
		{{Name: "a", Source: "bc"}},
		{{Name: "a", Source: "b", Assertions: []string{"x y"}}},
		{{Name: "a", Source: "b", Assertions: []string{"x", "y"}}},
		{{Name: "a", Source: "b"}, {Name: "x"}},
		nil,
	} {
		d := ExamplesDigest(exs)
		if digests[d] {
			t.Errorf("%+v shares a digest with an earlier list", exs)
		}
		digests[d] = true
	}
}

// ctxCount reports how many design contexts ctxCache holds.
func ctxCount() int {
	ctxCache.Lock()
	defer ctxCache.Unlock()
	return len(ctxCache.m)
}

// TestDesignCtxCacheIsBounded: feeding more distinct design sources than
// maxDesignCtxs never leaves more than maxDesignCtxs contexts cached.
func TestDesignCtxCacheIsBounded(t *testing.T) {
	for i := range maxDesignCtxs + 10 {
		buildDesignCtx(fmt.Sprintf("not verilog %d", i))
		if n := ctxCount(); n > maxDesignCtxs {
			t.Fatalf("after %d sources the cache holds %d contexts, above the bound %d", i+1, n, maxDesignCtxs)
		}
	}
}

// TestGenerationSurvivesDesignCtxClear: a design context is a pure
// function of its source, so generation after the cache started over is
// identical to generation before.
func TestGenerationSurvivesDesignCtxClear(t *testing.T) {
	ctxCache.Lock()
	ctxCache.m = nil
	ctxCache.Unlock()
	m := New(GPT4o())
	p := BuildPrompt(testExamples(), testDesign, m.Profile.ContextWindow)
	generate := func() GenResult {
		r, err := m.Generate(context.Background(), p, GenOptions{Shots: 5, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	before := generate()
	cached := buildDesignCtx(p.TestSource)
	for i := range maxDesignCtxs {
		buildDesignCtx(fmt.Sprintf("filler %d", i))
	}
	if buildDesignCtx(p.TestSource) == cached {
		t.Fatal("the design context survived the cache starting over")
	}
	if after := generate(); !reflect.DeepEqual(before, after) {
		t.Errorf("generation changed after the cache started over:\n%s\n---\n%s", before.Text, after.Text)
	}
}
