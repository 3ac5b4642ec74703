GO ?= go

.PHONY: ci vet build test race bench bench-smoke fuzz-smoke perfbench-test golden examples

# ci is the gate run by .github/workflows/ci.yml: vet, build, and the
# full test suite under the race detector (the harness worker pool is
# the main customer of -race). The suite includes every golden gate:
# the TestGolden cases of cmd/nticampaign, cmd/ntireport and
# cmd/ntitrace and internal/report's TestGenerateGolden byte-compare
# each artifact with its committed golden.
ci: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once (no timing
# loop): a cheap CI guard that benchmark code doesn't rot.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# fuzz-smoke runs two oracle fuzzers for 10 s each. Fusion: every
# interval.Fuser method must equal its naive test-code reference bit for
# bit, and fault-tolerant intersection must contain true time whenever
# at most f inputs lie. Sketch merge: a quantile.Sketch merged from two
# halves of a weighted stream must equal the whole stream's sketch bit
# for bit (sum to 1e-12). The committed seed corpora (testdata/fuzz in
# internal/interval and internal/quantile) also run as part of
# `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFuserMatchesReference$$' -fuzztime 10s ./internal/interval
	$(GO) test -run '^$$' -fuzz '^FuzzSketchMerge$$' -fuzztime 10s ./internal/quantile

# examples runs every program under examples/ with go run; each prints
# a short report and exits 0, so an example that stops building or
# starts failing breaks this target.
examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# perfbench-test runs the benchmark module's unit tests (a separate Go
# module under perfbench/, so `go test ./...` at the root skips it): an
# internal API change that breaks the benchmark build fails here.
perfbench-test:
	cd perfbench && $(GO) test -short ./...

# golden regenerates every committed golden; run it after an intentional
# behavior change and review the diff before committing. The campaign
# goldens go first: ntireport's golden is rendered from the smoke
# campaign golden.
golden:
	$(GO) test ./cmd/nticampaign -run Golden -update
	$(GO) test ./cmd/ntireport ./cmd/ntitrace ./internal/report -run Golden -update
