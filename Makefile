GO ?= go

# Markdown files whose links (and godoc-bearing packages) the docs gates
# cover.
DOCS = README.md DESIGN.md EXPERIMENTS.md PAPER_MAP.md \
       examples/quickstart/README.md examples/remoteswap/README.md \
       examples/multitenant/README.md examples/kvcache/README.md \
       examples/graphanalytics/README.md

.PHONY: all build vet test bench bench-check bench-check-recorded smoke figures docs-check links-check

all: vet build test docs-check links-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Record the benchmark baseline to BENCH_1.json (see scripts/bench.sh).
bench:
	scripts/bench.sh

# Regression gate: A/B the gated hot-path benchmarks — baseline ref
# (BENCH_AB_BASE, default HEAD~1) in a throwaway worktree vs the working
# tree, both on THIS machine — and fail on >15% ns/op growth, any
# allocs/op increase, or any allocation on the Memory hit paths
# (scripts/bench_ab.sh).
bench-check:
	scripts/bench_ab.sh

# The old recorded-baseline gate: rerun the headline benchmarks and diff
# against BENCH_1.json. Only meaningful on the machine that recorded the
# baseline; bench-check (A/B at HEAD) is the portable gate.
bench-check-recorded:
	$(GO) test -run '^$$' -benchmem -count 1 -benchtime 2s \
	  -bench 'BenchmarkSimulatorThroughput$$|BenchmarkPredictorFaultPath$$' . \
	  | python3 scripts/bench2json.py > /tmp/leap_bench_fresh.json
	python3 scripts/bench_compare.py BENCH_1.json /tmp/leap_bench_fresh.json

# Quick end-to-end check: one figure at test scale.
smoke:
	$(GO) run ./cmd/leapbench -scale small -fig 1

# Regenerate every figure and table at full scale.
figures:
	$(GO) run ./cmd/leapbench

# Godoc gate: every exported symbol in every package must carry a doc
# comment (cmd/docscheck).
docs-check:
	$(GO) run ./cmd/docscheck . ./cmd/* ./examples/* ./internal/*

# Markdown link gate: relative links and anchors in the documentation set
# must resolve.
links-check:
	python3 scripts/check_links.py $(DOCS)
