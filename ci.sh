#!/usr/bin/env bash
# Repo CI gate: formatting, release build, every workspace crate's tests,
# clippy over every target with warnings denied, rustdoc with warnings
# denied. The tests include tests/figure_shapes.rs, which reruns every
# paper figure at quick size and fails unless the result equals the
# committed BENCH_figures_quick.json byte for byte, then checks the
# paper's shapes on its rows.
# Run from the repository root. Offline by design (deps are vendored).
set -euo pipefail
cd "$(dirname "$0")"

# Vendored deps are neither fmt- nor doc-clean (and must stay pristine), so
# fmt/doc enumerate the first-party packages: the root `skipit` and the
# package of each `crates/*/Cargo.toml` (its first `name =` line).
FIRST_PARTY=(-p skipit)
for manifest in crates/*/Cargo.toml; do
  FIRST_PARTY+=(-p "$(awk -F'"' '/^name = /{print $2; exit}' "$manifest")")
done

cargo fmt --check "${FIRST_PARTY[@]}"
cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

# `ci.sh --quick` adds the two checks that need a release build or a long
# run (every simulated-result contract is already a test above):
#  - the full-size figure table: reruns every paper figure at full size
#    (about 33 s) and fails unless the result equals the committed
#    BENCH_figures.json on every line but `host_cpus` and `wall_s`
#    (the ignored test `full_table_matches_committed_json` in
#    tests/figure_shapes.rs).
#  - the simspeed host-time gate: smoke-runs the simspeed benchmark
#    (reduced workloads) three times, in child processes of the bench,
#    and fails if any workload's median engine speedup regresses more
#    than 20 % below the committed BENCH_simspeed.json, including the
#    warm-started sweep's wall-clock ratio. The smoke runs write their
#    JSON to temp files, which the gate deletes once read, so the committed
#    full-size numbers are never clobbered.
if [[ "${1:-}" == "--quick" ]]; then
  cargo test --release -q --test figure_shapes -- --ignored
  SKIPIT_BENCH_QUICK=1 \
  SKIPIT_BENCH_BASELINE="$PWD/BENCH_simspeed.json" \
    cargo bench -p skipit-bench --bench simspeed
fi
