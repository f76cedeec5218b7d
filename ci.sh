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
# fmt/doc enumerate the first-party crates.
FIRST_PARTY=(-p skipit -p skipit-core -p skipit-boom -p skipit-dcache -p skipit-llc
  -p skipit-mem -p skipit-tilelink -p skipit-trace -p skipit-pds -p skipit-bench
  -p skipit-sweep -p skipit-explore -p skipit-snap -p skipit-replay
  -p skipit-service)

cargo fmt --check "${FIRST_PARTY[@]}"
cargo build --release
cargo test --workspace -q
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps "${FIRST_PARTY[@]}"

# `ci.sh --quick` additionally:
#  - runs the sharded-sweep smoke: a 4-point real-simulation sweep executed
#    serially and at 2 worker threads; fails on any error row or if the two
#    result tables are not bit-identical (examples/sweep_smoke.rs).
#  - runs the adversarial-exploration smoke campaign: 16 seeds x 2 contended
#    scenarios under full schedule perturbation with the invariant oracle on
#    every cycle; fails on any invariant violation, any failure that does
#    not reproduce from its printed (scenario, seed) coordinates, any
#    serial-vs-threaded table divergence, or any point whose rerun under
#    the lockstep oracle panics or ends on another cycle
#    (examples/explore_smoke.rs).
#  - runs the telemetry smoke: a short fig09-shaped run with interval
#    sampling on; fails if telemetry-on vs telemetry-off runs diverge in
#    cycles/stats, if any sampled interval delta disagrees with the
#    end-of-run MetricsSnapshot totals, or if the exported Perfetto
#    counter tracks are malformed (examples/telemetry_smoke.rs).
#  - runs the snapshot smoke: a traced 2-core run snapshotted mid-flight
#    must restore and finish bit-identically (cycles, stats, durable
#    memory, post-snapshot trace stream), and a 4-point set grid run warm
#    (one snapshotted fill shared by all points) must export a result
#    table bit-identical to the cold run (examples/snapshot_smoke.rs).
#  - runs the trace-replay smoke: captures a quickstart-shaped run, replays
#    the trace on fresh systems under both engines asserting
#    bit-identical cycles/stats/durable memory, replays the two committed
#    traces under traces/, corrupts a trace byte to check the decoder
#    fails with a typed error, and runs the replay_sweep perturbation grid
#    serially and at 2 worker threads asserting bit-identical tables
#    (examples/replay_smoke.rs; traces regenerate deterministically via
#    examples/capture_trace.rs).
#  - runs the service-frontend smoke: one open-loop Zipfian/Poisson SLO
#    workload executed under both engines, plain and perturbed, plus both
#    stress patterns (cache stampede, synchronized expiration storm); fails
#    on any digest, cycle or stats divergence, or on an internally
#    inconsistent SLO summary (examples/service_smoke.rs).
#  - runs the worker-mode examples, each of which asserts what it prints:
#    the §4 litmus shapes and Fig. 5 scenarios (examples/litmus.rs), the
#    context-switch flush closing a timing channel
#    (examples/security_flush.rs), crash recovery of an append-only log
#    (examples/persistent_log.rs), and cleaned DMA buffers reaching memory
#    (examples/dma_buffer.rs).
#  - smoke-runs the simspeed benchmark (reduced workloads) and fails if any
#    workload's engine speedup regresses more than 20 % below the committed
#    BENCH_simspeed.json — including the warm-started sweep's wall-clock
#    ratio. The JSON written by the smoke run goes to a temp file so the
#    committed full-size numbers are never clobbered.
if [[ "${1:-}" == "--quick" ]]; then
  cargo run --release --example sweep_smoke
  cargo run --release --example explore_smoke
  cargo run --release --example telemetry_smoke
  cargo run --release --example snapshot_smoke
  cargo run --release --example replay_smoke
  cargo run --release --example service_smoke
  cargo run --release --example litmus
  cargo run --release --example security_flush
  cargo run --release --example persistent_log
  cargo run --release --example dma_buffer
  SKIPIT_BENCH_QUICK=1 \
  SKIPIT_BENCH_BASELINE="$PWD/BENCH_simspeed.json" \
  SKIPIT_BENCH_OUT="$(mktemp)" \
    cargo bench -p skipit-bench --bench simspeed
fi
