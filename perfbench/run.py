#!/usr/bin/env python3
"""The repository benchmark: one command, three named workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the measuring binary (`perfbench/src`, a cargo package of its own)
from the checkout's sources, runs the workload for `--seconds` of host
time, checks every output, and prints one JSON object as the last line of
standard output: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end metrics of `BENCHMARK.json`,
measured with tracing off; with `--trace 1` they are its per-layer metrics,
from a separate run of a `--features profile` build that records spans
around every call into a layer. The line before it is the host record.

Host threads are pinned (`affinity` in `src/main.rs`): the threads of one
thread-mode run share a CPU, and repetitions rotate over the CPUs the
process may use. A host time is the first decile of a run's repetitions
(see `fast_decile`), per CPU when they rotated, averaged over CPUs.

Correctness: on a workload's pinned seed (`perfbench/pins.json`, derived
once from the reference `Naive` engine) every output must equal the pin;
on every seed the in-run invariants must hold and every repetition of a
unit must reproduce the first one exactly.

    python3 perfbench/run.py --selftest      # tiny sizes: every metric emitted, oracle bites
    python3 perfbench/run.py --derive-pins   # rewrite pins.json from Naive-engine runs

`perfbench/layers.json` maps each per-layer metric to the end-to-end metric
and workload it is expected to move, and records why each workload exists.
Raw results, spans and per-layer self times go to `perfbench/out/`.
"""

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
LAYERS = HERE / "layers.json"
OUT = HERE / "out"
# The whole run, build excluded, stays inside this many seconds.
RUN_LIMIT_S = 170
# Seeds whose inputs reproduce committed numbers; their outputs are pinned.
DEFAULT_SEEDS = {"service_kv": 23, "fig09_flush_8c": 9, "fig15_warm_grid": 11}
# The committed `storm/g560/skip-it` row of BENCH_simspeed.json the service
# pin must reproduce.
COMMITTED_POINT = "storm/g560/skip-it"


class BenchError(Exception):
    """A failure that leaves no result to print."""


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def target_dir():
    t = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return t if t.is_absolute() else ROOT / t


def build():
    """Builds the plain and the `profile` binary; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} holds no simulator sources to build")
    tdir = target_dir()
    env = dict(os.environ, CARGO_TARGET_DIR=str(tdir))
    bins = {}
    for variant, features in (("plain", []), ("profile", ["--features", "profile"])):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(HERE / "Cargo.toml"), *features]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            raise BenchError(f"build failed: {' '.join(cmd)}")
        dest = tdir / f"perfbench-{variant}"
        shutil.copy2(tdir / "release" / "perfbench", dest)
        bins[variant] = dest
    return bins


def run_binary(binary, args, deadline):
    """Runs the measuring binary; returns its JSON report."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([str(binary), *args], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{binary.name} {' '.join(args)} ran past {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"{binary.name} {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def host_record(raw):
    def cmd(*c):
        try:
            r = subprocess.run(c, cwd=ROOT, capture_output=True, text=True, timeout=30)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    sources = hashlib.sha256()
    for path in sorted([ROOT / "Cargo.toml", ROOT / "Cargo.lock",
                        *ROOT.glob("crates/*/Cargo.toml"), *ROOT.glob("crates/*/src/**/*.rs"),
                        *HERE.glob("src/*.rs"), HERE / "Cargo.toml"]):
        if path.is_file():
            sources.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "host_cpus": raw["host_cpus"],
        "rustc": cmd("rustc", "--version"),
        "git_commit": cmd("git", "rev-parse", "HEAD") if (ROOT / ".git").exists() else None,
        "source_sha256": sources.hexdigest(),
        "profile_compiled": raw["profile_compiled"],
    }


def oracle(raw, pin):
    """Checks a report against its workload's pin, if it applies.

    Returns `(checked, mismatches)`; `mismatches` lists what differs."""
    if pin is None or raw["tiny"] or raw["seed"] != pin["seed"]:
        return False, []
    bad = []
    for i, unit in enumerate(raw["units"]):
        for key, want in pin["unit_outputs"].items():
            if unit["outputs"].get(key) != want:
                bad.append(f"unit {i} {key}: {unit['outputs'].get(key)!r} != pin {want!r}")
    for key, want in pin["run_outputs"].items():
        if raw["outputs"].get(key) != want:
            bad.append(f"{key}: {raw['outputs'].get(key)!r} != pin {want!r}")
    return True, bad


def verdict(raw, pin):
    """Counts attempted and failed units and lists every failed check."""
    problems = []
    attempted = sum(u["attempted"] for u in raw["units"]) + len(raw["checks"])
    failed = sum(u["failed"] for u in raw["units"])
    if failed:
        problems.append(f"{failed} units failed an in-run check")
    for c in raw["checks"]:
        if not c["ok"]:
            failed += 1
            problems.append(f"check {c['name']} failed: {c['detail']}")
    first = raw["units"][0]["outputs"] if raw["units"] else None
    for i, u in enumerate(raw["units"]):
        if u["outputs"] != first:
            failed += u["attempted"] - u["failed"]
            problems.append(f"unit {i} did not reproduce unit 0's outputs")
    checked, mismatches = oracle(raw, pin)
    if mismatches:
        failed = attempted
        problems.extend(mismatches)
    return {"attempted": attempted, "failed": min(failed, attempted),
            "pinned": checked, "problems": problems}


def fast_decile(pairs):
    """The first decile of the host times in `(cpu, seconds)` pairs; when
    the workload pinned its repetitions to host CPUs in turn, the mean over
    CPUs of the per-CPU first deciles.

    Not the median: on a shared host a neighbour's load switches a CPU
    between a fast and a roughly 1.7x slower state every second or so, so a
    run's times are bimodal and their median lands in whichever state
    happened to last longer. The first decile reads the fast state, which
    nearly every run reaches, so it tracks the program."""
    by_cpu = {}
    for cpu, value in pairs:
        by_cpu.setdefault(cpu, []).append(value)
    return statistics.fmean(
        v[0] if len(v) == 1 else statistics.quantiles(v, n=10, method="inclusive")[0]
        for v in by_cpu.values())


def unit_wall(raw):
    return fast_decile((u["cpu"], u["wall_s"]) for u in raw["units"])


def end_to_end(raw):
    units = raw["units"]
    wall_s = unit_wall(raw)
    values = {
        "wall_s": wall_s,
        "setup_s": fast_decile((s["cpu"], s["s"]) for s in raw["setup_s"]),
        # Every unit of a run simulates the same cycles.
        "sim_kcycles_per_s": statistics.median(u["sim_total_cycles"] for u in units)
        / wall_s / 1e3,
        "peak_rss_mib": raw["peak_rss_mib"],
        **raw["sim"],
    }
    return values


def self_times(spans):
    """Per span name and per layer: total and self seconds, where self time
    is a span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_name = {}
    for s in spans:
        covered, end = 0, s["start_ns"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_ns"]):
            lo, hi = max(c["start_ns"], end, s["start_ns"]), min(c["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                end = hi
        total = s["end_ns"] - s["start_ns"]
        row = by_name.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += total * 1e-9
        row["self_s"] += (total - covered) * 1e-9
    by_layer = {}
    for name, row in by_name.items():
        layer = by_layer.setdefault(name.split(".")[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for k in row:
            layer[k] += row[k]
    return {"by_span": by_name, "by_layer": by_layer}


def measure(args, bins, pins, deadline):
    """One benchmark run; returns (result line, record for out/)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    pin = pins.get(args.workload)
    if args.trace:
        raw = run_binary(bins["profile"], common + ["--seconds", str(args.seconds), "--traced"],
                         deadline)
        untraced = run_binary(bins["plain"], common + ["--seconds", str(args.seconds / 3)],
                              deadline)
        values = dict(raw["layers"])
        values["trace.overhead_pct"] = 100.0 * (unit_wall(raw) / unit_wall(untraced) - 1.0)
        names = spec()["per_layer"]
        v_untraced = verdict(untraced, pin)
    else:
        raw = run_binary(bins["plain"], common + ["--seconds", str(args.seconds)], deadline)
        values = end_to_end(raw)
        names = spec()["end_to_end"]
        v_untraced = None
    v = verdict(raw, pin)
    if v_untraced:
        v["attempted"] += v_untraced["attempted"]
        v["failed"] += v_untraced["failed"]
        v["problems"] += v_untraced["problems"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names}
    result = {"correct": v["failed"] == 0, "attempted": v["attempted"], "failed": v["failed"],
              "metrics": metrics}
    record = {"host": host_record(raw), "args": vars(args), "verdict": v, "result": result,
              "unmeasured": raw["unmeasured"],
              "raw": {k: raw[k] for k in raw if k != "spans"}}
    if args.trace:
        record["spans"] = raw["spans"]
        record["self_times"] = self_times(raw["spans"])
    return result, record


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    bins = build()
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    result, record = measure(args, bins, pins, deadline)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for p in record["verdict"]["problems"]:
        log(p)
    for metric, reason in record["unmeasured"].items():
        log(f"{metric} not measured on {args.workload}: {reason}")
    print(json.dumps({"host": record["host"]}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def derive_pins():
    """Runs each workload once at its default seed on the reference engine
    and writes the outputs as pins, after checking them against the
    committed numbers they must reproduce."""
    deadline = time.monotonic() + 3600
    bins = build()
    committed = next(p for p in json.loads((ROOT / "BENCH_simspeed.json").read_text())
                     ["service"]["grid"] if p["point"] == COMMITTED_POINT)
    pins = {}
    for workload, seed in DEFAULT_SEEDS.items():
        log(f"deriving {workload} (seed {seed}) on the Naive engine")
        raw = run_binary(bins["plain"], ["--workload", workload, "--seed", str(seed),
                                         "--seconds", "0", "--engine", "naive", "--reference"],
                         deadline)
        v = verdict(raw, None)
        if v["failed"]:
            raise BenchError(f"{workload}: {v['problems']}")
        unit = raw["units"][0]["outputs"]
        run_outputs = dict(raw["outputs"])
        if workload == "service_kv":
            got = {k: unit[k] for k in ("requests", "cycles", "p50", "p99", "p999")}
            got["mean"] = round(unit["mean"], 1)
            want = {k: committed[k] for k in got}
            if got != want:
                raise BenchError(f"service_kv does not reproduce {COMMITTED_POINT}: {got} != {want}")
        elif workload == "fig09_flush_8c":
            ours = [run_outputs["warmup_cycles"]] + [unit["cycles"]] * (
                len(run_outputs["fig9_sample_naive_cycles"]) - 1)
            if run_outputs.pop("fig9_sample_naive_cycles") != ours:
                raise BenchError("fig09_flush_8c inputs differ from fig9_sample's")
        elif workload == "fig15_warm_grid":
            if run_outputs.pop("fig15_reduced_sweep_json_fnv64") != unit["sweep_json_fnv64"]:
                raise BenchError("fig15_warm_grid differs from fig15_reduced_sweep(true)")
        pins[workload] = {"seed": seed, "engine": raw["engine"], "unit_outputs": unit,
                          "run_outputs": run_outputs}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    log(f"wrote {PINS.relative_to(ROOT)}")
    return 0


def selftest():
    """Tiny-size self-test: every metric is emitted with its unit, the
    layer map covers every metric and workload, and the oracle flags a
    deliberately wrong pin."""
    s = spec()
    layer_map = json.loads(LAYERS.read_text())
    workloads = [w["name"] for w in s["workloads"]]
    assert sorted(layer_map["workloads"]) == sorted(workloads), "layer map workloads"
    assert sorted(layer_map["per_layer"]) == sorted(m["name"] for m in s["per_layer"]), \
        "layer map must cover every per-layer metric"
    for name, entry in layer_map["per_layer"].items():
        for e2e, workload in entry["moves"]:
            assert e2e in {m["name"] for m in s["end_to_end"]} and workload in workloads, name
    bins = build()
    for workload in workloads:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEEDS[workload],
                                      seconds=1.0, trace=bool(trace), tiny=True)
            result, record = measure(args, bins, {}, time.monotonic() + RUN_LIMIT_S)
            assert result["correct"], (workload, trace, record["verdict"])
            wanted = s["per_layer"] if trace else s["end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in wanted}, (workload, trace)
            for m in wanted:
                got = result["metrics"][m["name"]]
                assert got["unit"] == m["unit"], (workload, m["name"])
                assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), \
                    (workload, m["name"], got)
            if trace:
                assert record["spans"] and record["self_times"]["by_layer"], workload
                continue
            raw = record["raw"]
            pin = {"seed": raw["seed"], "unit_outputs": raw["units"][0]["outputs"],
                   "run_outputs": raw["outputs"]}
            honest = dict(raw, tiny=False)
            assert verdict(honest, pin)["failed"] == 0, (workload, "true pin rejected")
            wrong = copy.deepcopy(pin)
            key = next(iter(wrong["unit_outputs"]))
            wrong["unit_outputs"][key] = "deliberately wrong"
            v = verdict(honest, wrong)
            assert v["failed"] == v["attempted"] and v["problems"], (workload, "wrong pin passed")
            log(f"selftest {workload}: ok")
    log("selftest: ok")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--derive-pins", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.derive_pins:
            return derive_pins()
        if args.workload is None or args.seed is None:
            p.error("--workload and --seed are required")
        args.trace = bool(args.trace)
        return run(args)
    except BenchError as e:
        log(e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
