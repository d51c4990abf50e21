// Command abench runs the AssertionBench COTS evaluation (the paper's
// Fig. 4 pipeline) for one or all models and prints the Pass/CEX/Error
// metrics per k-shot setting. Ctrl-C cancels gracefully: in-flight
// design jobs finish, everything else stops.
//
// Usage:
//
//	abench                      # all four COTS models, 1- and 5-shot
//	abench -model gpt4o         # one model
//	abench -designs 20 -seed 7  # quick subset
//	abench -per-design          # per-design verdict breakdown
//	abench -stream              # print outcomes as designs complete
//	abench -workers 8           # evaluation worker-pool size
//	abench -shard 1/4           # evaluate the 2nd of 4 corpus shards
//	abench -cache-dir /var/abench-cache  # persistent artifact store: start warm
//	abench -deadline 2m         # anytime mode: bounded verdicts at the deadline
//	abench -design-budget 5s    # cap each design's verification wall clock
//	abench -retries 2           # retry transient per-design failures with backoff
//	abench -error-policy continue  # stream failed designs as errored outcomes
//	abench -resume -cache-dir D # skip designs a previous run already decided
//	abench -inject panic:3      # deterministic fault injection (chaos testing)
//
// abench runs the production engine configuration. The reference paths
// the self-check compares it against (interpreter backend, full-design
// search, search without the static pass) are internal and have no
// flags.
//
// Exit status is 0 on success, 1 on interruption or when any design
// errored under -error-policy continue (after the full output), 2 on
// usage, flag or design errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"assertionbench"
	"assertionbench/internal/cliutil"
	"assertionbench/internal/faultinject"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("abench: ")
	model := flag.String("model", "", "restrict to one model: gpt3.5|gpt4o|codellama|llama3")
	seed := flag.Int64("seed", 1, "experiment seed")
	designs := flag.Int("designs", 0, "limit test designs (0 = all 100)")
	perDesign := flag.Bool("per-design", false, "print per-design verdicts")
	stream := flag.Bool("stream", false, "print each design outcome the moment it completes")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	workers := flag.Int("workers", 0, "evaluation worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	deadline := flag.Duration("deadline", 0, "anytime run budget: at expiry, completed designs keep their verdicts and the rest come back truncated/unknown (0 = off)")
	designBudget := flag.Duration("design-budget", 0, "per-design verification wall-clock budget; undecided assertions come back unknown (0 = off)")
	shard := flag.String("shard", "", "evaluate one corpus shard, as index/count (e.g. 0/4)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory: compiled programs and reachability graphs are read from and written to it, so repeated invocations start warm (empty = off)")
	errorPolicy := flag.String("error-policy", "", "what a failed design job does to the run: fail (default; stop at the first error) or continue (stream it as an errored outcome and finish)")
	retries := flag.Int("retries", 0, "retry budget for transient per-design failures, each retry after a deterministic seeded backoff (0 = no retry)")
	resume := flag.Bool("resume", false, "serve designs an earlier run with the same model, examples, seed and options already decided from their journaled records and evaluate only the rest (requires -cache-dir)")
	inject := flag.String("inject", "", "deterministic fault-injection plan, comma-separated mode:index[:attempts[:delay]] rules (modes: panic, error, delay) — for chaos testing the retry/error-policy machinery")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	shardIndex, shardCount, err := assertionbench.ParseShard(*shard)
	if err != nil {
		cliutil.Fatal(err)
	}
	if *resume && *cacheDir == "" {
		cliutil.Fatal(errors.New("-resume needs -cache-dir: the run's records live in the artifact store"))
	}
	plan, err := faultinject.ParseSpec(*inject)
	if err != nil {
		cliutil.Fatal(err)
	}
	defer plan.Install()()
	b, err := assertionbench.Load(ctx, assertionbench.Options{Seed: *seed, MaxDesigns: *designs})
	if err != nil {
		fatal(err)
	}
	profiles := assertionbench.Profiles()
	if *model != "" {
		p, err := assertionbench.ProfileByName(*model)
		if err != nil {
			cliutil.Fatal(err)
		}
		profiles = []assertionbench.Profile{p}
	}
	type jsonRow struct {
		Model   string                 `json:"model"`
		Shots   int                    `json:"shots"`
		Metrics assertionbench.Metrics `json:"metrics"`
	}
	var rows []jsonRow
	errored := 0
	for _, p := range profiles {
		for _, k := range []int{1, 5} {
			runner := assertionbench.NewRunner(assertionbench.NewModelGenerator(p), b, assertionbench.RunOptions{
				Shots:        k,
				Seed:         *seed,
				UseCorrector: true,
				Workers:      *workers,
				Deadline:     *deadline,
				DesignBudget: *designBudget,
				CacheDir:     *cacheDir,
				ErrorPolicy:  *errorPolicy,
				Retries:      *retries,
				Resume:       *resume,
				ShardIndex:   shardIndex,
				ShardCount:   shardCount,
			})
			var r assertionbench.RunResult
			if *stream {
				// Incremental mode: outcomes print as designs finish; the
				// collected totals are identical to a batch run. With
				// -json the progress lines go to stderr so stdout stays
				// parseable.
				progress := os.Stdout
				if *asJSON {
					progress = os.Stderr
				}
				r = assertionbench.RunResult{Generator: p.Name(), Shots: k}
				for o, err := range runner.Stream(ctx) {
					if err != nil {
						fatal(err)
					}
					fmt.Fprintf(progress, "%-14s %d-shot  #%03d %-28s %v%s\n", p.Name(), k, o.Index, o.Design, o.Metrics(), truncMark(o))
					r.Metrics.Merge(o.Metrics())
					r.Outcomes = append(r.Outcomes, o)
				}
			} else {
				r, err = runner.Run(ctx)
				if err != nil {
					fatal(err)
				}
			}
			errored += r.Metrics.NErrored
			if *asJSON {
				rows = append(rows, jsonRow{Model: p.Name(), Shots: k, Metrics: r.Metrics})
				continue
			}
			fmt.Printf("%-14s %d-shot: %v\n", p.Name(), k, r.Metrics)
			// Stream mode already printed one line per design; don't
			// repeat them in a second format.
			if *perDesign && !*stream {
				for _, d := range r.Outcomes {
					fmt.Printf("    %-28s %v%s\n", d.Design, d.Metrics(), truncMark(d))
				}
			}
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			cliutil.Fatal(err)
		}
	}
	// Under -error-policy continue the run finishes and prints everything,
	// but errored designs make the invocation non-zero — scripts must not
	// mistake a partially failed sweep for a clean one.
	if errored > 0 {
		log.Printf("%d design job(s) errored; metrics above exclude them", errored)
		os.Exit(1)
	}
}

// truncMark flags outcomes an anytime budget cut short or a continue-
// policy run converted from a failed job.
func truncMark(o assertionbench.DesignOutcome) string {
	s := ""
	if o.Truncated {
		s += " [truncated]"
	}
	if o.Errored {
		s += " [errored: " + o.Err + "]"
	}
	return s
}

// fatal distinguishes interruption (exit 1, partial results are the
// user's doing) from real failures (exit 2, the shared CLI convention).
func fatal(err error) {
	if errors.Is(err, context.Canceled) {
		log.Fatal("interrupted; partial results discarded")
	}
	cliutil.Fatal(err)
}
