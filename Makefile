GO ?= go

.PHONY: check fmt vet abenchvet build test bench race apicheck fuzz selfcheck

check: fmt vet abenchvet build test apicheck

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Project vet suite: determinism invariants (no math/rand, no time.Now,
# no map-order-dependent iteration) over the verification core.
abenchvet:
	$(GO) run ./cmd/abenchvet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The dverify suite under the race detector runs long: the backend,
# batch, cone, static and store oracles each re-verify every fuzzed
# property on two engine configurations, hence the explicit timeout.
# CI's selfcheck matrix runs TestSelfCheckShortMode under race at seeds
# 1-3 on every push, which also fails if batching, the cone or the store
# saves no graph expansion or the static pass discharges nothing; this
# target is the full local sweep of every package with concurrent paths.
race:
	$(GO) test -race -timeout 60m ./internal/eval/ ./internal/llm/ ./internal/bench/ ./internal/dverify/ ./internal/faultinject/ ./internal/fpv/ ./internal/mine/

# Differential self-check: seeded design/property fuzzing with
# cross-engine oracles. SEED/N are overridable: make selfcheck SEED=7
selfcheck:
	$(GO) run ./cmd/fuzzcheck -n $(or $(N),200) -seed $(or $(SEED),1)

# go-native fuzzing smoke over the checked-in seed corpora.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseVerilog -fuzztime 20s ./internal/verilog
	$(GO) test -run '^$$' -fuzz FuzzParseSVA -fuzztime 20s ./internal/sva
	$(GO) test -run '^$$' -fuzz FuzzTokenize -fuzztime 20s ./internal/llm
	$(GO) test -run '^$$' -fuzz FuzzFinetune -fuzztime 20s ./internal/llm
	$(GO) test -run '^$$' -fuzz FuzzDecodeProgram -fuzztime 20s ./internal/verilog
	$(GO) test -run '^$$' -fuzz FuzzDecodeGraph -fuzztime 20s ./internal/fpv
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 20s ./internal/faultinject
	$(GO) test -run '^$$' -fuzz FuzzParseShard -fuzztime 20s ./internal/bench
	$(GO) test -run '^$$' -fuzz FuzzVerifyBlob -fuzztime 20s ./internal/astore
	$(GO) test -run '^$$' -fuzz FuzzDecodeRecord -fuzztime 20s ./internal/eval
	$(GO) test -run '^$$' -fuzz FuzzAbstractWalk -fuzztime 20s ./internal/vstatic

# Build a tiny consumer program against the public package from a temp
# module outside the repo, so internal/ leakage into public signatures
# fails the build.
apicheck:
	sh scripts/apicheck.sh

bench:
	$(GO) test -bench=. -benchmem .
