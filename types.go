package assertionbench

import (
	"sort"
	"strings"

	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// Design is one benchmark entry: a Verilog module plus its Table I
// metadata. It is the façade's currency for designs — every public API
// that reads or produces designs uses it, never internal types.
type Design struct {
	// Name is the module name; FileName the corpus file name.
	Name     string
	FileName string
	Source   string
	// Sequential distinguishes clocked designs from pure combinational
	// ones (Table I's "Design Type").
	Sequential bool
	// Category groups designs by hardware function.
	Category string
	// Functionality is the Table I description.
	Functionality string
	// LoC is the cloc-style line count (no blanks, no comments).
	LoC int
}

// Example is one in-context example: a design and its formally verified
// assertions (paper Sec. III: each tuple has 2-10 assertions).
type Example struct {
	Name       string
	Source     string
	Assertions []string
}

// DesignFromSource wraps raw Verilog text as a Design for APIs that take
// one (custom verifiers, generators). Name may be "" to use the module's
// own name.
func DesignFromSource(name, source string) Design {
	return Design{Name: name, Source: source}
}

// --- conversions between the public and internal representations ---

func (d Design) internal() bench.Design {
	return bench.Design{
		Name:          d.Name,
		FileName:      d.FileName,
		Source:        d.Source,
		Sequential:    d.Sequential,
		Category:      d.Category,
		Functionality: d.Functionality,
		LoC:           d.LoC,
	}
}

func newDesign(d bench.Design) Design {
	return Design{
		Name:          d.Name,
		FileName:      d.FileName,
		Source:        d.Source,
		Sequential:    d.Sequential,
		Category:      d.Category,
		Functionality: d.Functionality,
		LoC:           d.LoC,
	}
}

func internalDesigns(ds []Design) []bench.Design {
	out := make([]bench.Design, len(ds))
	for i, d := range ds {
		out[i] = d.internal()
	}
	return out
}

func newDesigns(ds []bench.Design) []Design {
	out := make([]Design, len(ds))
	for i, d := range ds {
		out[i] = newDesign(d)
	}
	return out
}

func internalExamples(exs []Example) []llm.Example {
	out := make([]llm.Example, len(exs))
	for i, ex := range exs {
		out[i] = llm.Example(ex)
	}
	return out
}

func newExamples(exs []llm.Example) []Example {
	out := make([]Example, len(exs))
	for i, ex := range exs {
		out[i] = Example(ex)
	}
	return out
}

// DesignNets elaborates a design (through the process-wide cache) and
// returns its top-level net names, sorted — the introspection hook for
// callers that condition on a signal's existence (e.g. picking a taint
// guard) without parsing Verilog themselves.
func DesignNets(designSource string) ([]string, error) {
	nl, err := elaborateSource(designSource)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range nl.Nets {
		if !strings.Contains(n.Name, ".") {
			out = append(out, n.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// PurgeCaches empties the process-wide elaboration cache the façade's
// source-based entry points (VerifyAssertions, MineAssertions,
// MeasureCoverage, the Runner, ...) share: elaborated designs, their
// reachability graphs and the memoized verdicts the graph cache answers
// repeated (design, assertion, options) questions from. The cache holds
// every distinct design ever elaborated — including failed elaborations
// — so long-running embedders feeding unbounded streams of
// caller-supplied designs should purge periodically to bound memory.
// Purging also makes the next run verify every assertion afresh rather
// than read an earlier run's verdicts.
func PurgeCaches() {
	bench.DefaultElab.Purge()
}

// SetCacheDir attaches a persistent, content-addressed artifact store
// at dir to the process-wide caches: compiled execution programs and
// FPV reachability graphs are read through from (and written behind
// to) disk, keyed by design source hash and verification options, so a
// fresh process — a new CI job, a new worker sharing a cache volume —
// serves its first request warm. "" detaches the store. Corrupt,
// truncated or version-skewed blobs are discarded and rebuilt
// transparently, and PurgeCaches only empties the in-memory tiers: the
// disk store exists to survive exactly that.
func SetCacheDir(dir string) error {
	return bench.SetCacheDir(dir)
}

// ShardDesigns returns the index-th of count contiguous shards of a
// design list — the same partitioning the evaluation runner uses, so a
// report over shard i matches what a sharded run evaluates.
func ShardDesigns(designs []Design, index, count int) ([]Design, error) {
	shard, err := bench.Shard(internalDesigns(designs), index, count)
	if err != nil {
		return nil, err
	}
	return newDesigns(shard), nil
}

// ParseShard parses an "index/count" shard spec as accepted by the CLIs.
// The empty string means unsharded (0, 0).
func ParseShard(s string) (index, count int, err error) {
	return bench.ParseShard(s)
}
