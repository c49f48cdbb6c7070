# Tier-1 verification and development targets. See DESIGN.md for the
# test-mode split.

GO ?= go

.PHONY: all build vet fmt-check doc-check gob-check timer-check loc loc-check surface surface-check test test-short race leak-check stress cover bench bench-check ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite (the GitHub
# workflow runs the same check).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# Documentation gate: formatting (covers the runnable Example_* files),
# vet, a package comment on every internal/ package — godoc is part of
# the contract, so an undocumented package fails CI — and no broken
# relative links in the top-level documents (cmd/doc-link-check).
doc-check: fmt-check vet
	@bad=$$($(GO) list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./internal/...); \
	if [ -n "$$bad" ]; then echo "missing package comment:" >&2; echo "$$bad" >&2; exit 1; fi
	$(GO) run ./cmd/doc-link-check README.md ARCHITECTURE.md DESIGN.md

# One wire codec: encoding/gob stays off every per-message path. It may
# appear only where a cold artefact is persisted or crosses real TCP
# (core/checkpoint.go manifests, internal/sched, internal/exp, cmd/) and in
# tests. internal/wiretest holds the size reference the codec is compared
# against, so nothing but tests may import it.
GOB_FREE = internal/smartsockets internal/ipl internal/core internal/phys internal/wire
gob-check:
	@bad=$$(find $(GOB_FREE) -name '*.go' ! -name '*_test.go' ! -path internal/core/checkpoint.go \
	  -exec grep -l '"encoding/gob"' {} +); \
	if [ -n "$$bad" ]; then echo "encoding/gob on a per-message path:" >&2; echo "$$bad" >&2; exit 1; fi
	@bad=$$(find cmd internal examples -name '*.go' ! -name '*_test.go' \
	  -exec grep -l '"jungle/internal/wiretest"' {} +); \
	if [ -n "$$bad" ]; then echo "internal/wiretest imported outside tests:" >&2; echo "$$bad" >&2; exit 1; fi

# No timer picks a route, and none brings a model up: in the transport
# packages and in internal/core the host's clock may only be a watchdog — a
# timer that turns a hang into a structured error and decides nothing else.
# Every time.Sleep/After/AfterFunc/NewTimer/Tick there carries a
# "// watchdog:" comment on its line saying which hang it turns into which
# error; DESIGN.md § Overlay routing classifies the timers the packages above
# them still have.
TIMER_FREE = internal/vnet internal/smartsockets internal/ipl internal/mpisim internal/fifo internal/wire internal/core
timer-check:
	@bad=$$(find $(TIMER_FREE) -name '*.go' ! -name '*_test.go' \
	  -exec grep -nE 'time\.(Sleep|After|AfterFunc|NewTimer|Tick)\b' {} + | grep -v '// watchdog:'); \
	if [ -n "$$bad" ]; then echo "wall-clock timer without a // watchdog: comment:" >&2; echo "$$bad" >&2; exit 1; fi

# Size ledger: non-test Go lines (wc -l, the ROADMAP's measure) per internal/
# package, for internal/core without kernel/, and for the repository
# excluding bench/ (its own module, changed only by [benchmark] PRs).
# loc-check holds the last two to the numbers the latest PR recorded: a PR
# that grows them raises the number here, in its diff, and says why.
LOC_CORE_MAX = 5619
LOC_TOTAL_MAX = 26053
LOC = find $(1) -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' $(2) -exec cat {} + | wc -l
loc:
	@for p in internal/*/; do printf '%-28s %6d\n' "$${p%/}" "$$($(call LOC,$$p))"; done
	@printf '%-28s %6d  (max $(LOC_CORE_MAX))\n' 'internal/core w/o kernel/' "$$($(call LOC,internal/core,! -path 'internal/core/kernel/*'))"
	@printf '%-28s %6d  (max $(LOC_TOTAL_MAX))\n' 'repository w/o bench/' "$$($(call LOC,.))"
loc-check:
	@core=$$($(call LOC,internal/core,! -path 'internal/core/kernel/*')); total=$$($(call LOC,.)); \
	if [ $$core -gt $(LOC_CORE_MAX) ] || [ $$total -gt $(LOC_TOTAL_MAX) ]; then \
	  echo "loc-check: internal/core $$core (max $(LOC_CORE_MAX)), repository $$total (max $(LOC_TOTAL_MAX))" >&2; exit 1; fi

# Surface ledger: every exported func or method under internal/ is named by
# something that is not a test — a non-test .go file anywhere in the
# repository (cmd/, examples/, bench/ and internal/ itself included) or the
# root package's bench_test.go — or it is in SURFACE_KEEP below with the
# reason it has only test callers. The census is a grep, so it goes by name:
# comments are dropped, a func's own declaration does not count, and a name
# two packages share counts for both (a type-accurate census finds more;
# ROADMAP item 5). surface prints the census per package and the keep-list;
# surface-check fails on a name outside the list and on a list entry the
# census no longer finds, so the list — its length is the maximum — only
# gets shorter: a PR that adds a test-only export adds its line here, in its
# diff, and says why.
define SURFACE_KEEP
internal/amuse/data KineticEnergy     diagnostic: internal/amuse/ic's tests check the Plummer sphere's virial ratio with it
internal/amuse/data PotentialEnergy   diagnostic: the other half of that virial ratio (O(N^2), not for a run)
internal/amuse/ic UniformSphere       test substrate: the second particle distribution of the sph/tree/nbody oracle tests
internal/core DecodeManifest          inverse of Manifest.Encode: commands install exp's evictor, so none resumes a bare manifest yet
internal/core/kernel Unwrap           interface method: errors.Is reaches WireError.Unwrap, nothing names it
internal/ipl SetFailureHook           fault observation: the registry test watches a member's death through it
internal/mpisim LocalGangs            test substrate: in-memory gang links for the physics packages' sharded-kernel tests
internal/sched Unwrap                 interface method: errors.Is reaches BusyError.Unwrap, nothing names it
internal/vnet CrashHost               fault injection: the paper's hard fault, a machine vanishing
internal/vnet SetHostUp               fault injection: a host goes down and comes back
internal/wiretest CheckRegistry       test substrate: holds each package's payload table to its declared structs
endef
export SURFACE_KEEP
SURFACE_SRC = find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*'
SURFACE_DECL = ^func (\([^)]*\) )?[A-Z][A-Za-z0-9_]*
# "dir Name" of every exported func under internal/, then of those no consumer names.
SURFACE_ALL = find internal -name '*.go' ! -name '*_test.go' -exec grep -HoE '$(SURFACE_DECL)' {} + \
	| sed -E 's,/[^/]*\.go:func (\([^)]*\) )?, ,' | sort -u
SURFACE_CENSUS = { { $(SURFACE_SRC); echo ./bench_test.go; } | xargs cat \
	| sed -E -e 's,//.*,,' -e 's/$(SURFACE_DECL)//' | grep -oE '[A-Z][A-Za-z0-9_]*' | sort -u | sed 's/^/= /'; \
	$(SURFACE_ALL); } | awk '$$1 == "=" { used[$$2]; next } !($$2 in used)'
surface:
	@census=$$($(SURFACE_CENSUS)); \
	$(SURFACE_ALL) | cut -d' ' -f1 | uniq -c | while read -r n dir; do \
	  printf '%-28s %4d exported, %2d named by tests only\n' "$$dir" "$$n" "$$(echo "$$census" | grep -c "^$$dir ")"; done; \
	echo; echo "keep-list ($$(echo "$$SURFACE_KEEP" | wc -l) names, the maximum):"; echo "$$SURFACE_KEEP"
surface-check:
	@census=$$($(SURFACE_CENSUS)); keep=$$(echo "$$SURFACE_KEEP" | awk '{print $$1, $$2}'); \
	extra=$$(echo "$$census" | grep -vxF "$$keep"); stale=$$(echo "$$keep" | grep -vxF "$$census"); \
	if [ -n "$$extra" ]; then echo "surface-check: exported under internal/, named by no non-test file, not in SURFACE_KEEP:" >&2; echo "$$extra" >&2; fi; \
	if [ -n "$$stale" ]; then echo "surface-check: in SURFACE_KEEP but reached by a non-test file or gone — delete the line:" >&2; echo "$$stale" >&2; fi; \
	[ -z "$$extra$$stale" ]

# Fast suite: unit + protocol + reduced-scale integration (seconds).
test-short:
	$(GO) test -short ./...

# Full suite, including the full-scale experiment runs in internal/exp.
test:
	$(GO) test ./...

# Fast suite under the race detector: exercises the async coupler API
# (pipelined calls, concurrent channels, parallel Stop) for data races.
race:
	$(GO) test -race -short ./...

# Buffer-ownership gate (DESIGN.md § Buffer ownership): the tests that pin
# "Send takes the slice, the transport forgets what it delivered, ports
# close with their owner" — retention, ownership at every cloning site,
# goroutine/table leaks, the peer plane's rendezvous (a parked connection
# nobody claims is closed, never stranded) and the allocation gates — three
# times over under the race detector, where a buffer two owners share shows
# up as a race.
# The physics packages are here for their allocation gates (DESIGN.md §
# Hot loops): a step allocates its working set once, not per cell or node.
LEAK_PKGS = ./internal/fifo ./internal/vnet ./internal/smartsockets ./internal/ipl ./internal/mpisim ./internal/core \
	./internal/phys/sph ./internal/phys/tree ./internal/phys/nbody
leak-check:
	$(GO) test -race -count=3 -run 'Retention|Ownership|Leak|Gate|Rendezvous' $(LEAK_PKGS)

# Determinism under load: the tests that hold virtual time, route choice
# and the wire to a pure function of the inputs, twenty times over under
# the race detector (which reshuffles goroutine interleavings the way a
# loaded host does). Slow (~20 min); not part of ci.
stress:
	$(GO) test -race -count=20 -run 'TestRouteChoiceIsAPureFunction|TestRouteTieBreaks|TestConnectUnknownHostFailsFast|TestRetentionHubForgetsClosedCircuits' ./internal/smartsockets
	$(GO) test -race -count=20 -run 'TestCoupledStepVirtualTimeRepeats' ./internal/exp
	$(GO) test -race -count=20 -run 'TestPlaneByteIdentity' .

# Coverage gates: internal/trace is the one package every layer records
# into, and internal/ensemble is the sweep engine whose accounting the
# campaign reports are trusted on — each holds a >= 90% statement-
# coverage floor.
COVER_FLOOR = 90.0
COVER_PKGS = ./internal/trace ./internal/ensemble
cover:
	@for pkg in $(COVER_PKGS); do \
	  $(GO) test -cover -coverprofile=cover.out $$pkg > /dev/null || { rm -f cover.out; exit 1; }; \
	  pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	  rm -f cover.out; \
	  echo "$$pkg coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
	  awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || \
	    { echo "$$pkg coverage $$pct% below the $(COVER_FLOOR)% floor" >&2; exit 1; }; \
	done

# The paper's evaluation tables/figures plus substrate micro-benchmarks.
# The run is recorded as a machine-readable perf trajectory in $(BENCH_OUT)
# (benchmark name -> metric -> value, including the virtual-time metrics
# and the session/ensemble makespans); the raw output still prints via
# benchjson's tee. A PR that re-baselines names its own file:
# make bench BENCH_OUT=BENCH_<pr>.json.
#
# -cpu 1 pins GOMAXPROCS: go test appends "-N" to every benchmark name on
# an N-core host, and every committed BENCH_*.json was recorded on one P,
# so without the pin bench-check finds no common names on a larger host
# and passes without comparing anything.
#
# The scenario benchmarks live in the root package; a layer's own benchmarks
# live with the layer (BENCH_PKGS).
BENCH_OUT ?= BENCH_21.json
BENCH_PKGS = . ./internal/core ./internal/mpisim ./internal/phys/sph ./internal/phys/tree ./internal/phys/nbody
BENCH_RUN = $(GO) test -run XXX -bench . -benchmem -cpu 1 $(BENCH_PKGS)
bench:
	@$(BENCH_RUN) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }
	@$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	@rm -f bench.out

# Perf regression gate: rerun the benchmarks and compare the virtual-*
# metrics against the newest committed BENCH_*.json. Virtual time is a
# function of the inputs, so every entry is gated exactly (any rise fails)
# except the ones -loose-match names, which keep 15%: there several sessions
# or ensemble members run concurrently, and the order in which the scheduler
# admits them — goroutine interleaving — is part of their virtual makespan.
# allocs/op is gated at +2% plus one allocation on the single-process
# benchmarks whose count repeats exactly. Wall-clock ns/op is not gated (host-dependent).
bench-check:
	@base=$$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1); \
	if [ -z "$$base" ]; then echo "bench-check: no BENCH_*.json baseline" >&2; exit 1; fi; \
	echo "bench-check: baseline $$base"; \
	$(BENCH_RUN) > bench.out || { cat bench.out; rm -f bench.out; exit 1; }; \
	$(GO) run ./cmd/benchjson -o bench-check.json -against $$base \
	  -loose-match 'ConcurrentSessions|Ensemble' \
	  -allocs-match 'HermiteStep|TreeField|SPHStep|MPIAllreduce|IbisChannelRoundTrip|BulkRound|LabTestbedBuild' \
	  < bench.out; st=$$?; \
	rm -f bench.out bench-check.json; exit $$st

# Tier-1 gate: everything a PR must keep green, in one command.
ci: build vet doc-check gob-check timer-check loc-check surface-check test-short race leak-check cover
