GO ?= go

.PHONY: all build test bench lint fmt tables serve docs-check readme-check

all: lint test

build:
	$(GO) build ./...

# Run the solve service on :8437 (see README "Solve service").
serve:
	$(GO) run ./cmd/mwvc-serve

# test depends on lint so `make all` and CI vet exactly once (in lint)
# before the suite runs.
test: lint
	$(GO) test ./...

# Per-algorithm micro-benchmarks plus the quick-mode experiment benches.
bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# The lint gate: go vet (its single run — test and docs-check depend on
# this target instead of re-running it), gofmt cleanliness, and the
# project's own rule suite (cmd/mwvc-lint; see DESIGN.md "Enforced
# invariants"). The root ./... stops at the nested benchmark module,
# which imports the internal packages, so that module is vetted too.
lint:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi
	$(GO) run ./cmd/mwvc-lint

fmt:
	gofmt -w .

# Documentation gate: markdown link integrity and doc-comment coverage for
# the documented packages (cmd/mwvc-docs docPackages: the root facade
# package, internal/graph, internal/centralized, internal/mpc,
# internal/reduce, internal/improve, internal/pdfast, internal/compress,
# internal/solver, internal/serve, internal/fault, internal/lint). Depends
# on lint rather than running vet again. Run by the CI docs job.
docs-check: lint
	$(GO) run ./cmd/mwvc-docs

# Pin the README quickstart commands against flag drift (see
# scripts/check_readme.sh). Run by the CI docs job.
readme-check:
	./scripts/check_readme.sh

# Regenerate the full-size experiment tables (minutes).
tables:
	$(GO) run ./cmd/mwvc-bench
