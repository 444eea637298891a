#!/usr/bin/env bash
# Local CI entry point — the same gates .github/workflows/ci.yml runs.
# Every step is wrapped in `timeout` so a deadlocked test can never wedge
# the pipeline (the runtimes' own watchdogs should fire long before these).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_TIMEOUT="${BUILD_TIMEOUT:-1200}"
TEST_TIMEOUT="${TEST_TIMEOUT:-900}"
CLIPPY_TIMEOUT="${CLIPPY_TIMEOUT:-1200}"
BENCH_TIMEOUT="${BENCH_TIMEOUT:-120}"
FUZZ_TIMEOUT="${FUZZ_TIMEOUT:-60}"
TRACE_TIMEOUT="${TRACE_TIMEOUT:-600}"

run() {
  local limit="$1"
  shift
  echo "==> $*"
  timeout --kill-after=30 "$limit" "$@"
}

run "$BUILD_TIMEOUT" cargo fmt --all -- --check
run "$BUILD_TIMEOUT" cargo build --release --workspace
run "$TEST_TIMEOUT" cargo test -q
run "$TEST_TIMEOUT" cargo test -q --workspace
# The wall-clock benchmark is its own package (perfbench/, separate
# workspace) built against the library crates: test it so a library change
# that breaks it fails CI rather than the benchmark run.
run "$TEST_TIMEOUT" cargo test --release --offline --manifest-path perfbench/Cargo.toml
run "$CLIPPY_TIMEOUT" cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" run "$BUILD_TIMEOUT" cargo doc --no-deps --workspace

# Docs ↔ CLI consistency: every `--flag` the prose mentions alongside one
# of the repo's binaries must still be parsed by one of those binaries'
# sources, so a renamed or removed flag can't leave dangling instructions
# behind. (Checked against the union of the four binaries because a doc
# line may name several of them; cargo's own flags are whitelisted.)
check_doc_flags() {
  local bad=0 f
  local bins='bench-suite|fuzz-diff|trace-report|server-stats'
  local srcs='crates/bench/src/bin/bench-suite.rs crates/bench/src/bin/fuzz-diff.rs crates/bench/src/bin/trace-report.rs crates/bench/src/bin/server-stats.rs'
  local cargo_flags='release|bin|package|quiet|workspace|features|bench|no-deps|all-targets'
  local s
  for s in $srcs; do
    [ -f "$s" ] || { echo "ERROR: docs reference binary source $s, which is missing" >&2; bad=1; }
  done
  for f in $(grep -rhE "\b($bins)\b" --include='*.md' README.md EXPERIMENTS.md DESIGN.md docs |
    grep -oE -- '--[a-z][a-z-]+' | sed 's/^--//' | sort -u |
    grep -vE "^($cargo_flags)$" || true); do
    if ! grep -q -- "\"--$f\"" $srcs; then
      echo "ERROR: docs mention flag --$f next to ($bins) but no binary parses it" >&2
      bad=1
    fi
  done
  # Docs ↔ CI gate consistency: every BENCH_*.json artifact the prose
  # names must be validated by this script, so a documented gate can't
  # silently drop out of CI.
  local b
  for b in $(grep -rhoE 'BENCH_[0-9]+\.json' --include='*.md' \
    README.md EXPERIMENTS.md DESIGN.md docs | sort -u); do
    if ! grep -A1 -- '--validate' "$0" | grep -q "$b"; then
      echo "ERROR: docs mention $b but scripts/ci.sh never runs --validate on it" >&2
      bad=1
    fi
  done
  return "$bad"
}
echo "==> docs/CLI flag consistency"
check_doc_flags

# Scheduling-policy regression smoke: must produce a well-formed
# BENCH_3.json (the full criteria run at figure scale; see EXPERIMENTS.md).
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_3.json

# Fast-path regression smoke: must produce a well-formed BENCH_5.json
# (checker epoch-summary pruning; the criteria run at figure scale via
# `--fastpath` without `--smoke`, see EXPERIMENTS.md).
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --fastpath --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_5.json

# Sharded-checker regression smoke: must produce a well-formed
# BENCH_7.json (verdict identity + checker-wait share criteria run at
# figure scale via `--shards` without `--smoke`, see EXPERIMENTS.md).
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --shards --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_7.json

# Region-server saturation smoke: N independent SPECCROSS + DOMORE regions
# through one shared pool must produce a well-formed BENCH_8.json whose
# criteria (per-region digests identical to solo, aggregate throughput
# above region-at-a-time in the virtual-time model, fault isolation) are
# deterministic and therefore gate even at smoke scale (see EXPERIMENTS.md).
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --regions --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_8.json

# Telemetry-plane smoke: the BENCH_8 fleet with the live registry + flight
# recorder attached must produce a well-formed BENCH_9.json whose criteria
# (digest identity on vs. off, snapshot-vs-report metrics consistency, one
# well-formed flight dump under an injected fault, >= 0.97x throughput)
# gate at smoke scale too (see EXPERIMENTS.md). Also leaves
# BENCH_9.snapshots.jsonl + BENCH_9.prom as exposition exemplars for
# server-stats and Prometheus scrapes.
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --telemetry --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_9.json

# Static-elision smoke: the registry transparency sweep (elide-on digests
# and verdicts identical to elide-off) plus the clustered/mixed checker-side
# measurements must produce a well-formed BENCH_10.json (see EXPERIMENTS.md;
# the pruning-ratio and wait-share criteria gate at full scale only).
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --elide --smoke
run "$BENCH_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin bench-suite -- \
  --validate target/figures/BENCH_10.json

# Differential-fuzzing smoke: replay the checked-in corpus, then a fixed
# seed window through every engine path against the sequential oracle
# (docs/FUZZING.md). Any divergence is minimized into
# target/fuzz-corpus/ (CI uploads it as an artifact) and fails the run.
run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
  --smoke --corpus corpus --out target/fuzz-corpus
run "$FUZZ_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin fuzz-diff -- \
  --smoke --start 100000 --fault-percent 100 --corpus corpus --out target/fuzz-corpus

# Observability smoke: a traced figure run must produce traces that survive
# strict analysis (non-zero exit on any ring overflow) and export to
# Chrome/Perfetto trace_event JSON (see docs/OBSERVABILITY.md). The text
# report and the chrome/ directory are the artifacts CI archives.
run "$TRACE_TIMEOUT" env CROSSINVOC_TRACE=1 cargo bench -p crossinvoc-bench --bench fig4_3
run "$TRACE_TIMEOUT" cargo run --release -q -p crossinvoc-bench --bin trace-report -- \
  --strict --chrome target/figures/chrome target/figures/*.trace.jsonl \
  >target/figures/trace-report.txt
echo "    wrote target/figures/trace-report.txt + target/figures/chrome/"

echo "CI passed."
