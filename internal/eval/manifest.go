package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"assertionbench/internal/astore"
	"assertionbench/internal/bench"
	"assertionbench/internal/llm"
)

// Crash-safe resumable runs. Whenever an artifact store is attached,
// the runner journals every decided design outcome write-behind as one
// record (an astore.KindRun blob) per design, keyed by exactly what the
// outcome depends on: the record format, the generator's identity, the
// in-context examples, shots, seed, the corrector flag, the verifier's
// identity (KeyedVerifier; for the built-in engine, the FPV options it
// verifies with), and the design's name, source hash and global corpus
// index. A verifier without an identity journals nothing. A record
// is thus a pure function of its key, like a program or graph blob, and
// is written only when the store does not hold it yet: one stat per
// design, and a repeated run writes nothing. A later run with
// RunOptions.Resume reads each design's record and evaluates only the
// designs without one — Unknown verdicts, truncation stubs, errored
// outcomes, designs never reached, and edited designs. Decided verdicts
// are budget- and schedule-independent (the anytime and oracle-3
// contracts), so the key excludes Workers, budgets, Retries and
// ErrorPolicy, and a resumed run is byte-identical to one never
// interrupted (dverify oracle 11).

// recordVersion is the record format, part of every key. Bump it
// whenever DesignOutcome's fields change, so that no record is decoded
// into a shape it was not written in.
const recordVersion = 1

// ManifestDropHook, when non-nil, suppresses journaling of the decided
// outcome at the given global corpus index. It exists solely as a
// mutation seam: oracle 11's mutation test installs it to prove that a
// journal silently skipping records is caught (the resumed run
// re-verifies designs a record should have decided, and the oracle
// counts those verify calls). Never set in production.
var ManifestDropHook func(index int) bool

// journal reads and writes one run's records. A nil journal is a no-op,
// so the store-less path pays nothing.
type journal struct {
	store *astore.Store
	run   string // digest of the run-wide part of every record key
	// rewrite holds the global indices whose record passed the store's
	// checksum but not decodeRecord; resume fills it before any worker
	// starts, and record overwrites those records instead of trusting Has.
	rewrite map[int]bool
}

// newJournal returns the journal of a run over store, or nil when the
// run's verifier has no identity: its outcomes cannot be told apart
// from another verifier's, so they are neither journaled nor resumed.
func newJournal(store *astore.Store, gen Generator, icl []llm.Example, opt RunOptions) *journal {
	kv, ok := opt.NewVerifier().(KeyedVerifier)
	if !ok {
		return nil
	}
	vkey := kv.VerifierKey(opt.FPV)
	if vkey == "" {
		return nil
	}
	h := sha256.New()
	fmt.Fprintf(h, "record v%d\x00%s\x00%s\x00shots=%d seed=%d corr=%t\x00%s",
		recordVersion, generatorID(gen), llm.ExamplesDigest(icl), opt.Shots, opt.Seed, opt.UseCorrector, vkey)
	return &journal{store: store, run: hex.EncodeToString(h.Sum(nil))}
}

// generatorID identifies what a generator's output depends on besides
// the design, the examples and GenOptions: a model's lineage, or a
// miner's name and options. Any other generator is identified by its
// Name, so two such generators sharing a name share records.
func generatorID(gen Generator) string {
	switch g := gen.(type) {
	case ModelGenerator:
		return "model\x00" + g.Model.Identity()
	case MinerGenerator:
		return fmt.Sprintf("miner\x00%s\x00%#v", g.name, g.opt)
	}
	return "named\x00" + gen.Name()
}

// key is the record key of design d at global corpus index index.
func (j *journal) key(d bench.Design, index int) string {
	return fmt.Sprintf("%s\x00%s\x00%x\x00%d", j.run, d.Name, sha256.Sum256([]byte(d.Source)), index)
}

// decided reports whether an outcome is final: every verdict one of the
// paper's three, nothing truncated, nothing errored. Only decided
// outcomes are journaled.
func decided(o DesignOutcome) bool {
	if o.Truncated || o.Errored {
		return false
	}
	for _, v := range o.Verdicts {
		if v != VerdictPass && v != VerdictCEX && v != VerdictError {
			return false
		}
	}
	return true
}

// decodeRecord decodes a record payload (JSON) and accepts it only as a
// decided outcome of the design named name at global index index; a
// payload that fails is treated as absent, keeping a bad record a
// performance event, never a correctness one.
func decodeRecord(blob []byte, index int, name string) (DesignOutcome, bool) {
	var o DesignOutcome
	if json.Unmarshal(blob, &o) != nil || o.Index != index || o.Design != name || !decided(o) {
		return DesignOutcome{}, false
	}
	return o, true
}

// resume returns the journaled outcomes of designs (designs[0] at global
// index base) by global index. A design whose record is missing, fails
// the store's checksum (Get discards it) or does not decode is left out,
// so it is evaluated again.
func (j *journal) resume(designs []bench.Design, base int) map[int]DesignOutcome {
	done := map[int]DesignOutcome{}
	j.rewrite = map[int]bool{}
	for i, d := range designs {
		if blob, ok := j.store.Get(astore.KindRun, j.key(d, base+i)); ok {
			if o, ok := decodeRecord(blob, base+i, d.Name); ok {
				done[base+i] = o
			} else {
				j.rewrite[base+i] = true
			}
		}
	}
	return done
}

// record journals the outcome of design d if it is decided and its
// record is not in the store yet. Workers call it concurrently; every
// design has its own key, and a racing process writes identical bytes.
// A failed Put is ignored: a resumed run simply redoes the work.
func (j *journal) record(d bench.Design, o DesignOutcome) {
	if j == nil || !decided(o) || (ManifestDropHook != nil && ManifestDropHook(o.Index)) {
		return
	}
	key := j.key(d, o.Index)
	if !j.rewrite[o.Index] && j.store.Has(astore.KindRun, key) {
		return
	}
	if blob, err := json.Marshal(o); err == nil {
		_ = j.store.Put(astore.KindRun, key, blob)
	}
}
