package llm

import (
	"fmt"
	"math"
	"math/rand"
)

// FinetuneOptions configure AssertionLLM construction (paper Sec. VI: 20
// epochs, 75/25 train/test split, same decoding hyperparameters).
type FinetuneOptions struct {
	// Epochs of passes over the train lines: their counts are added
	// Epochs times, and PerEpoch gets one entry per pass. Default 20; a
	// negative count trains nothing.
	Epochs int
	// HoldoutFraction of the corpus reserved for perplexity tracking.
	// Default 0.25.
	HoldoutFraction float64
	// Seed shuffles the corpus deterministically.
	Seed int64
}

func (o FinetuneOptions) withDefaults() FinetuneOptions {
	if o.Epochs == 0 {
		o.Epochs = 20
	}
	if o.HoldoutFraction == 0 {
		o.HoldoutFraction = 0.25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// FinetuneReport records the training trajectory.
type FinetuneReport struct {
	// PerplexityBefore/After on the held-out corpus slice.
	PerplexityBefore float64
	PerplexityAfter  float64
	// PerEpoch holds held-out perplexity after each epoch.
	PerEpoch []float64
	// Gain is the normalized improvement applied to the profile.
	Gain float64
}

// Finetune trains a copy of the model on a corpus of (design, proven
// assertions) examples and returns the AssertionLLM variant.
//
// Two things happen, mirroring Observation 5:
//
//  1. Real statistics: the n-gram tables absorb Epochs passes over the
//     corpus's train lines, which directly improves the fluency scoring
//     and token sampling the generator uses.
//  2. Behavioural annealing: the profile's error channels improve in
//     proportion to the measured held-out perplexity drop, scaled by the
//     base model's CodeAffinity — a code-pretrained base (CodeLLaMa 2)
//     converts the same data into much larger gains than a text-pretrained
//     base (LLaMa3-70B), and a text-pretrained base overfits the training
//     format at 1-shot (its confusion channel worsens slightly).
//
// Training is counting, and counts only add: after e passes the tables
// hold the base's counts plus e times one pass's, whatever order each
// pass took the lines in. So the train lines are encoded and counted
// once, each epoch's held-out perplexity is read from the scaled counts,
// and Epochs times the counts are added once at the end. The one order
// that matters is the first pass's: encoding interns new tokens, so it
// fixes their vocabulary ids. That order is drawn by the shuffle the
// first pass of an epoch loop would draw; later passes' shuffles would
// change nothing and are not drawn.
func Finetune(base *Model, corpus []Example, opt FinetuneOptions) (*Model, FinetuneReport) {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	holdout, train := splitCorpus(corpus, opt.HoldoutFraction, rng)

	lm := base.LM.Clone()
	report := FinetuneReport{PerplexityBefore: lm.Perplexity(holdout)}
	report.PerplexityAfter = report.PerplexityBefore
	if opt.Epochs > 0 {
		order := make([]int, len(train))
		for i := range order {
			order[i] = i
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pass := NewNGram(lm.vocab)
		var tk Tokenizer
		for _, i := range order {
			pass.TrainSequence(lm.vocab.Encode(tk.Tokenize(train[i])))
		}
		report.PerEpoch = lm.epochPerplexities(pass, holdout, opt.Epochs)
		report.PerplexityAfter = report.PerEpoch[opt.Epochs-1]
		lm.addScaled(pass, opt.Epochs)
	}
	return finetuned(base, corpus, opt, lm, report)
}

// splitCorpus shuffles the corpus's assertion lines and cuts the first
// frac of them off as the held-out slice.
func splitCorpus(corpus []Example, frac float64, rng *rand.Rand) (holdout, train []string) {
	var lines []string
	for _, ex := range corpus {
		lines = append(lines, ex.Assertions...)
	}
	rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
	holdN := int(float64(len(lines)) * frac)
	return lines[:holdN], lines[holdN:]
}

// finetuned wraps the trained lm into the AssertionLLM variant of base:
// it sets report.Gain from the held-out perplexities and anneals the
// profile by it.
func finetuned(base *Model, corpus []Example, opt FinetuneOptions, lm *NGram, report FinetuneReport) (*Model, FinetuneReport) {
	// Normalized improvement in [0,1): how much of the held-out surprisal
	// the training removed. With no held-out lines both perplexities are
	// +Inf: nothing was measured, so nothing improved.
	improve := 0.0
	if before := report.PerplexityBefore; before > 0 && !math.IsInf(before, 1) {
		improve = 1 - report.PerplexityAfter/before
		if improve < 0 {
			improve = 0
		}
	}
	aff := base.Profile.CodeAffinity
	report.Gain = improve * aff

	p := base.Profile
	p.Name = "AssertionLLM(" + p.Name + ")"
	p.Finetuned = true
	anneal := func(sp ShotParams, lowShot bool) ShotParams {
		// Grounding rises with gain; syntax and off-task noise collapse
		// toward the residual a fine-tuned model still exhibits (Obs. 6:
		// fine-tuning does not nullify syntax errors).
		sp.Grounding = clamp01(sp.Grounding + 0.68*report.Gain)
		sp.SyntaxNoise = clamp01(sp.SyntaxNoise * (1 - 0.55*aff))
		sp.CopyNoise = clamp01(sp.CopyNoise * (1 - 0.6*aff))
		sp.OffTask = clamp01(sp.OffTask * 0.25)
		sp.Confusion = clamp01(sp.Confusion * (1 - 0.4*report.Gain))
		if lowShot && aff < 0.5 {
			// Text-pretrained bases overfit the fine-tuning format; with a
			// single in-context example they hallucinate more confidently
			// (the paper's 1-shot regression for fine-tuned LLaMa3-70B).
			sp.Grounding = clamp01(sp.Grounding - 0.18)
			sp.Confusion = clamp01(sp.Confusion + 0.10)
		}
		return sp
	}
	p.K1 = anneal(base.Profile.K1, true)
	p.K5 = anneal(base.Profile.K5, false)

	lineage := fmt.Sprintf("finetuned\x00%s\x00%#v\x00%s", base.Identity(), opt, ExamplesDigest(corpus))
	return &Model{Profile: p, LM: lm, lineage: lineage}, report
}
