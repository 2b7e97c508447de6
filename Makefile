GO ?= go

.PHONY: build bench-smoke fmt-check test vet lint lint-json race race-dist race-hub race-search fuzz check ci bench fingerprint fingerprint-pooled fingerprint-hub fingerprint-update

# Tier-1 verification: everything must build, vet clean, lint clean,
# and pass.
build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean. testdata trees are skipped:
# they hold deliberately malformed fixtures (the lint loader's
# parse-error case), which gofmt cannot format.
fmt-check:
	@files=$$(git ls-files '*.go' | grep -v '\(^\|/\)testdata/'); \
	bad=$$(gofmt -l $$files); \
	if [ -n "$$bad" ]; then echo "fmt-check: not gofmt-clean:"; echo "$$bad"; exit 1; fi

# The scoreboard benchmark (bench/, its own module) drives the public
# APIs of the campaign, search and hub packages. Vetting and running its
# smoke test (~10 s) makes a change to one of those APIs fail here
# rather than in a benchmark run.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Determinism and concurrency linter (cmd/teledrive-lint): nine
# repo-specific rules — wallclock, globalrand, maporderfloat, floateq,
# atomicmix, goroutineleak, errswallow, exhaustiveenvelope,
# locksimclock — that machine-check the invariants the golden/faulty
# comparison and the distributed campaign service depend on. See
# internal/analysis and DESIGN.md §6, §12.
lint:
	$(GO) run ./cmd/teledrive-lint ./...

# Machine-readable lint results: the same run as `lint`, emitted as a
# (file, line, column, rule)-sorted JSON array in LINT.json —
# byte-identical across runs on the same tree, so CI can diff it.
# `|| true` keeps the artifact writable when findings exist; the `lint`
# target is the gate.
lint-json:
	$(GO) run ./cmd/teledrive-lint -json ./... > LINT.json || true

test: vet lint
	$(GO) test ./...

# Race-detector pass over every package. The campaign worker pool, the
# core run path, and the validity sweep pool carry the concurrency, and
# their determinism tests exercise multi-worker execution under the
# detector. internal/campaignd runs in -short mode here: the tracker
# ledger, journal, and wire codec race on every check, while the
# multi-second localhost-TCP campaign battery runs in race-dist.
race:
	$(GO) test -race $$($(GO) list ./... | grep -v internal/campaignd)
	$(GO) test -race -short ./internal/campaignd

# Multi-tenant hub chaos battery under the race detector: served
# sessions over real localhost TCP with mid-frame connection kills (one
# after another on one hub, then no pacer left after Close),
# lossy-datagram delta resyncs, concurrent join/leave churn, and the
# pacers' one flush per connection and tick, plus the station's burst
# flush and the framed stream's group-commit writer and error rule
# under it (concurrent writers, sticky error at the pending cap, I/O
# errors passed through). Runs in CI (scripts/ci.sh) after the package
# race stage.
race-hub:
	$(GO) test -race -run 'TestHubServe|TestHubChaos|TestHubChurn|TestHubHostileBytes|TestHubWire' -count=1 ./internal/hub
	$(GO) test -race -run 'TestStream' -count=1 ./internal/transport

# Distributed-campaign battery under the race detector: the campaignd
# coordinator/worker protocol, the chaos suite (worker killed, silent
# or failing a cell, a cell outlasting the worker timeout, coordinator
# kill + journal resume, duplicated result frames), and the
# distributed-equivalence golden. Split out because it runs real
# campaigns over localhost TCP and dominates a full `make race`. Runs in
# CI (scripts/ci.sh) after race-search.
race-dist:
	$(GO) test -race ./internal/campaignd

# Adversarial-search determinism battery under the race detector: the
# synthetic and real-drive any-worker-count identity tests, journal
# resume, and the CLI gate — then a same-seed double run of
# cmd/adversary (one worker vs four) whose reports must compare
# byte-identical. Runs in CI (scripts/ci.sh) after race-hub.
race-search:
	$(GO) test -race -count=1 -run 'TestSearchDeterministicAcrossWorkers|TestSimSearchDeterministicAcrossWorkers|TestJournalResume|TestHTEstimateUnbiased' ./internal/search
	$(GO) test -race -count=1 -run 'TestRunTinySearchDeterministic' ./cmd/adversary
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/adversary -seed 4 -generations 2 -cells 4 -elites 2 -scenario follow-vehicle -workers 1 -progress=false -out $$tmp/a.txt && \
	$(GO) run ./cmd/adversary -seed 4 -generations 2 -cells 4 -elites 2 -scenario follow-vehicle -workers 4 -progress=false -out $$tmp/b.txt && \
	cmp $$tmp/a.txt $$tmp/b.txt && echo "race-search: same-seed reports byte-identical across worker counts"; \
	status=$$?; rm -rf $$tmp; exit $$status

# Short fuzz passes over the hostile-input surfaces: the lint
# suppression parser (runs over every comment in the repo on each
# `make lint`), the world-view decoder, the transport framing, the
# framed stream every TCP wire shares (hub, campaignd), the
# zero-run checksum (must equal crc32 for any bytes plus a zero run),
# the endpoint receive path (arbitrary frames must never panic or be
# silently lost), the spatial-index equivalence property (grid-indexed
# projection must stay bit-identical to the linear reference scan), the
# neighbour-list Projector along random walks (every warm answer must
# equal the linear scan's bits), the Prometheus exposition writer
# (arbitrary metric/label names must sanitize into grammar-valid
# output), campaignd's chunk reassembly, inflate limits and JSON
# envelope, and the operator display (any keyframe/diff sequence must
# count every message once and only ever show newer frames).
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseAllow -fuzztime=5s ./internal/analysis
	$(GO) test -run='^$$' -fuzz=FuzzUnmarshalWorldView -fuzztime=5s ./internal/sensors
	$(GO) test -run='^$$' -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzChecksum -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzEndpointReceive -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzProjectEquivalence -fuzztime=5s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzProjectorWalk -fuzztime=5s ./internal/geom
	$(GO) test -run='^$$' -fuzz=FuzzExposition -fuzztime=5s ./internal/telemetry
	$(GO) test -run='^$$' -fuzz=FuzzWireProtocol -fuzztime=5s ./internal/campaignd
	$(GO) test -run='^$$' -fuzz=FuzzApplyWorldViewDelta -fuzztime=5s ./internal/sensors
	$(GO) test -run='^$$' -fuzz=FuzzStream -fuzztime=5s ./internal/transport
	$(GO) test -run='^$$' -fuzz=FuzzDisplay -fuzztime=5s ./internal/bridge

# Everything a PR must survive: compile, static checks, determinism
# lint, race-clean tests, and the short fuzz budget.
check: build vet lint race fuzz

# One-command CI gate: build + bench-smoke + fmt-check + vet + lint +
# race + race-hub + race-search + race-dist + fingerprint +
# fingerprint-pooled + fingerprint-hub, in order, stopping at the first
# failure (scripts/ci.sh). Fuzz is the slower `check` add-on.
ci:
	./scripts/ci.sh

# Micro-benchmark diagnostics: every `go test -bench` benchmark in the
# root package (substrate microbenches, table/figure reproductions,
# ablations), BENCHCOUNT repetitions, as plain `go test` text. The
# scoreboard is bench/ (BENCHMARK.json); the BENCH_PR*.json files are
# frozen history from an earlier median-only reducer. The expensive
# paper campaign behind the table benches runs once per invocation
# (sync.Once), so -count only repeats the cheap measurement loops.
BENCHCOUNT ?= 5
bench:
	$(GO) test -run='^$$' -bench . -benchmem -count $(BENCHCOUNT) .

# Refactor safety net: drive every canonical cell and diff its SHA-256
# trace fingerprint against the golden set recorded before the
# session-layer extraction (internal/session/testdata). `fingerprint`
# fails on any divergence; `fingerprint-update` rewrites the goldens —
# only after a change that is MEANT to alter trajectories.
fingerprint:
	$(GO) run ./cmd/fingerprint

# Arena-reuse safety net: every canonical cell runs TWICE through one
# shared session.RunScratch + scenario.ArtifactCache, and both passes
# must match the goldens recorded before pooling existed. The first
# pass fills the arena; the second proves recycled buffers, timers,
# world slabs, and cached artifacts are bit-identical to fresh
# allocation.
fingerprint-pooled:
	$(GO) run ./cmd/fingerprint -pooled

# Tenancy safety net: all six canonical cells run concurrently as
# sessions of one hub, twice (the second pass on recycled arenas), and
# every session's digest must match the goldens recorded when the
# cells ran alone.
fingerprint-hub:
	$(GO) run ./cmd/fingerprint -hub

fingerprint-update:
	$(GO) run ./cmd/fingerprint -update
