GO ?= go

.PHONY: all check vet build test race faults diffcheck lint bench bench-micro bench-smoke bench-parallel clean

all: check

# check runs everything CI runs.
check: vet build test race faults lint bench-smoke

vet:
	$(GO) vet ./...

# lint mirrors CI's lint job. gofmt ships with Go and gates hard: any file
# it would reformat fails the target. staticcheck and govulncheck are not
# vendored and must not be auto-installed here (the build environment is
# offline); when a tool is absent the target says so and moves on rather
# than failing. Directories starting with a dot (the benchmark's build
# tree among them) are not scanned.
lint:
	@unformatted=$$(gofmt -l $$(find . -path './.*' -prune -o -name '*.go' -print)); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files that need formatting:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race exercises the concurrency-sensitive packages under the race
# detector: the sweep runner itself, the refactored experiment drivers,
# the simulator core they drive, and the memoized report cache.
race:
	$(GO) test -race ./internal/sweep ./internal/experiments ./internal/cpu ./internal/diffcheck ./internal/repcache

# faults runs the fault-injection suite — panic recovery, retry/backoff,
# CollectAll error policy, cancellation attribution, and disk-cache
# integrity across interrupts — under the race detector.
faults:
	$(GO) test -race -run 'Fault|Panic|Retr|CollectAll|Cancel|Interrupt|Injector' \
		./internal/sweep ./internal/experiments ./cmd/paperbench .

# diffcheck runs the four-technique differential-equivalence harness
# (identical op scripts with THP collapse, COW, and reclaim must produce
# page-for-page identical end state under native/nested/shadow/agile)
# under the race detector.
diffcheck:
	$(GO) test -race -v ./internal/diffcheck

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-micro runs the per-layer hot-path microbenchmarks of PR 2 (entry
# reads, hardware walks, TLB probes, end-to-end accesses); all of them
# must report 0 allocs/op. Performance is judged by the repository
# benchmark in bench/ and its paired A/B, `bash bench/ab.sh BASE`.
bench-micro:
	$(GO) test -bench . -run '^$$' -count 5 \
		./internal/memsim ./internal/walker ./internal/tlb ./internal/cpu

# bench-smoke vets and tests the repository benchmark. bench/ is a module
# of its own, so the root `go vet ./...` and `go test ./...` never compile
# it; this catches a change to an internal API the benchmark calls.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-parallel compares the serial and parallel Figure 5 sweeps; on a
# multi-core machine the parallel run should be >= 2x faster.
bench-parallel:
	$(GO) test -bench 'BenchmarkFigure5(Serial|Parallel)$$' -benchtime 1x -run '^$$' .

clean:
	$(GO) clean ./...
