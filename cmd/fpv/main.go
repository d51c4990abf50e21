// Command fpv formally verifies SVA assertions against a Verilog design —
// the repository's JasperGold stand-in. Ctrl-C cancels the remaining
// search gracefully.
//
// Usage:
//
//	fpv design.v 'req == 1 |-> gnt == 1' ...
//	fpv -f assertions.sva design.v
//	fpv -cex design.v 'en == 1 |=> count == 0'
//	fpv -cache-dir ~/.cache/abench design.v 'rst |=> count == 0'
//	fpv -deadline 30s design.v 'req |-> ##[1:4] ack'
//	fpv -resume -cache-dir DIR -f a.sva design.v   # skip decided assertions
//
// fpv runs the production engine configuration. The reference paths
// the self-check compares it against (interpreter backend, full-design
// search, search without the static pass) are internal and have no
// flags.
//
// With -cache-dir, every decided verdict is journaled to a per-design
// run manifest in the artifact store; -resume serves those assertions
// from the manifest (marked "resumed") and verifies only the undecided
// rest — assertions a -deadline run left unknown, or ones added since.
//
// Exit status is 0 when every assertion proves (or, under -deadline,
// ran out of budget undecided — unknown is an anytime answer, not a
// failure), 1 when any assertion is refuted or errors, 2 on usage or
// design errors.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"

	"assertionbench"
	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fpv: ")
	file := flag.String("f", "", "file of assertions (one per line)")
	showCEX := flag.Bool("cex", false, "print counter-example traces")
	vcd := flag.String("vcd", "", "write the first counter-example as a VCD waveform to this file")
	states := flag.Int("states", 0, "max product states (0 = default)")
	cacheDir := flag.String("cache-dir", "", "persistent artifact store directory: compiled programs and reachability graphs are read from and written to it, so repeated invocations start warm (empty = off)")
	deadline := flag.Duration("deadline", 0, "anytime wall-clock budget: assertions undecided at expiry report unknown instead of blocking (0 = off)")
	resume := flag.Bool("resume", false, "serve assertions a previous run over the same design and options already decided from the artifact store's run manifest and verify only the rest (requires -cache-dir)")
	flag.Parse()
	if flag.NArg() < 1 {
		cliutil.Usage("usage: fpv [-f assertions.sva] [-cex] [-cache-dir DIR] [-deadline D] [-resume] design.v [assertion ...]")
	}
	if *deadline < 0 {
		cliutil.Fatalf("-deadline %v: budget must not be negative (0 disables it)", *deadline)
	}
	if *resume && *cacheDir == "" {
		cliutil.Fatalf("-resume needs -cache-dir: the run manifest lives in the artifact store")
	}
	src := cliutil.ReadFile(flag.Arg(0))
	assertions := cliutil.Assertions(*file, flag.Args()[1:])
	if *cacheDir != "" {
		if err := assertionbench.SetCacheDir(*cacheDir); err != nil {
			cliutil.Fatal(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	vopt := assertionbench.VerifyOptions{MaxProductStates: *states}

	// Run-manifest plumbing: with a store attached, every decided verdict
	// is journaled under a key derived from the design source and options;
	// -resume serves matching assertions straight from the manifest. A
	// missing or corrupt manifest resumes from nothing.
	store := bench.DiskStore()
	var mkey string
	journal := map[string]manifestEntry{}
	if store != nil {
		mkey = manifestKey(string(src), *states)
		if blob, ok := store.Get(astore.KindRun, mkey); ok {
			_ = json.Unmarshal(blob, &journal)
		}
	}
	// resumed is decided from the journal as loaded, before this run adds
	// to it: a repeated assertion verified here is not resumed, and takes
	// its own result.
	resumed := make([]bool, len(assertions))
	pending := assertions
	if *resume {
		pending = make([]string, 0, len(assertions))
		for i, a := range assertions {
			if _, ok := journal[a]; ok {
				resumed[i] = true
			} else {
				pending = append(pending, a)
			}
		}
	}

	results, err := assertionbench.VerifyAssertions(ctx, string(src), pending, vopt)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatalf("interrupted after %d of %d assertions", len(results), len(pending))
		}
		cliutil.Fatal(err)
	}
	pass, cex, errs, unknown := 0, 0, 0, 0
	next := 0
	for i, a := range assertions {
		if resumed[i] {
			e := journal[a]
			switch e.Status {
			case string(assertionbench.StatusCEX):
				cex++
			case string(assertionbench.StatusError):
				errs++
			default:
				pass++
			}
			fmt.Printf("%-12s %-60s %s (resumed)\n", e.Status, a, e.Detail)
			continue
		}
		r := results[next]
		next++
		detail := ""
		switch {
		case r.Status == assertionbench.StatusError:
			errs++
			detail = r.Err.Error()
		case r.Status == assertionbench.StatusCEX:
			cex++
			detail = fmt.Sprintf("violation at cycle %d", r.CEX.ViolationCycle())
		case r.Status == assertionbench.StatusUnknown:
			unknown++
			detail = "deadline expired before a verdict"
		default:
			pass++
			detail = fmt.Sprintf("states=%d exhaustive=%v", r.States, r.Exhaustive)
		}
		if r.Static {
			detail += " (static)"
		}
		// Unknown is an anytime answer, not a verdict — it stays out of the
		// manifest so a resume re-verifies it.
		if r.Status != assertionbench.StatusUnknown {
			journal[a] = manifestEntry{Status: string(r.Status), Detail: detail}
		}
		fmt.Printf("%-12s %-60s %s\n", r.Status, r.Assertion, detail)
		if *showCEX && r.CEX != nil {
			fmt.Print(r.CEX.Format())
		}
		if *vcd != "" && r.CEX != nil {
			f, err := os.Create(*vcd)
			if err != nil {
				cliutil.Fatal(err)
			}
			if err := r.CEX.WriteVCD(f); err != nil {
				cliutil.Fatal(err)
			}
			if err := f.Close(); err != nil {
				cliutil.Fatal(err)
			}
			fmt.Printf("wrote counter-example waveform to %s\n", *vcd)
			*vcd = "" // only the first CEX
		}
	}
	// Write-behind: the merged manifest (prior entries plus this run's
	// decided verdicts) lands in the store in one atomic blob. Best
	// effort — a failed journal write never fails the verification run.
	if store != nil && len(journal) > 0 {
		if blob, err := json.Marshal(journal); err == nil {
			_ = store.Put(astore.KindRun, mkey, blob)
		}
	}
	if unknown > 0 {
		fmt.Printf("\n%d pass, %d cex, %d error, %d unknown\n", pass, cex, errs, unknown)
	} else {
		fmt.Printf("\n%d pass, %d cex, %d error\n", pass, cex, errs)
	}
	if cex > 0 || errs > 0 {
		os.Exit(1)
	}
}

// manifestEntry is one journaled verdict in the fpv run manifest:
// enough to reprint and count the assertion on resume without
// re-verifying it (counter-example traces are not stored; rerun
// without -resume to regenerate one).
type manifestEntry struct {
	Status string `json:"status"`
	Detail string `json:"detail"`
}

// manifestKey derives the run-manifest key from the design source and
// the one option that can change a verdict, the -states bound. The
// -deadline budget is deliberately excluded: a decided verdict is
// budget-independent, so a deadline-starved run's manifest resumes
// cleanly into an unbudgeted rerun.
func manifestKey(src string, states int) string {
	h := sha256.New()
	io.WriteString(h, "fpvrun\x00")
	io.WriteString(h, src)
	fmt.Fprintf(h, "\x00states=%d", states)
	return hex.EncodeToString(h.Sum(nil))
}
