"""Benchmark of consistentwalks: the census, walk-queries and search workloads.

Run one workload:

  python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run every workload, untraced and traced:

  python3 perfbench/run.py --seed 1

Every sample runs in a fresh process under default interpreter flags, one
query at a time (a closed loop with one client). ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer calls, self times and
counts of one traced pass next to one untraced pass, and the outcome of
the Q3[3K1] ceiling probe. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. End-to-end times are speed-adjusted (see child.py) and
printed next to the raw times. Details and trace spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from child import PROBE_REF_S  # noqa: E402
from tracer import COUNT_NAMES, SPAN_NAMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0          # a run exits within 180 s
CEILING_LIMIT_S = 60.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "peak_rss_mb": "MiB"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
               "trace.unattributed_s": "s", "trace.spans": "count", "ceiling.elapsed_s": "s",
               "ceiling.blowup_group_order": "count", "drift_probe_s": "s"}


class RunFailed(Exception):
    """A sample process failed, timed out, or the checkout cannot be benchmarked."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("hit_ratio") else "count"


def drift_probe() -> float:
    """Time a fixed pure-Python loop, to tell a slow machine from a slow change."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - started


def spawn(workload: str, seed: int, mode: str, deadline: float,
          seconds: float = 0.0, passes: int = 0) -> dict:
    """Run child.py in a fresh process and return its JSON report."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work_dir = OUT / f"{workload}-seed{seed}"
    command = [sys.executable, str(HERE / "child.py"), "--workload", workload,
               "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
               "--passes", str(passes), "--work-dir", str(work_dir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed(f"no time left for the {mode} sample of {workload}")
    try:
        done = subprocess.run(command + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} sample of {workload} ran out of time") from None
    if done.returncode != 0 or not done.stdout.strip():
        raise RunFailed(f"{mode} sample of {workload} exited {done.returncode}:\n"
                        f"{done.stderr[-2000:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    for problem in report.get("problems", []):
        print(f"FAILED {problem}", file=sys.stderr)
    return report


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """Untraced run: set-up samples, then timed passes for ``seconds``."""
    drift = drift_probe()
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    report = spawn(workload, seed, "measure", deadline, seconds=seconds)
    setups.append(report)
    latencies = [x * 1e3 for pass_latencies in report["latencies_s"] for x in pass_latencies]
    raw = [x * 1e3 for pass_latencies in report["raw_latencies_s"] for x in pass_latencies]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "wall_s": statistics.median(map(sum, report["latencies_s"])),
        "query_p50_ms": statistics.median(latencies),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    p90 = statistics.quantiles(latencies, n=10)[8]
    return {"metrics": metrics, "units": END_TO_END_UNITS,
            "attempted": report["attempted"], "failed": report["failed"],
            "info": {"drift_probe_s": drift, "speed_probe_s": report["speed_probe_s"],
                     "raw": {"setup_s": statistics.median(r["raw_setup_s"] for r in setups),
                             "wall_s": statistics.median(map(sum, report["raw_latencies_s"])),
                             "query_p50_ms": statistics.median(raw)},
                     "query_p90_ms": p90,
                     "samples_beyond_p90": sum(x > p90 for x in latencies),
                     "pass_s": list(map(sum, report["latencies_s"])),
                     "raw_pass_s": list(map(sum, report["raw_latencies_s"])),
                     "setup_samples_s": [r["setup_s"] for r in setups],
                     "queries_per_pass": len(report["labels"]),
                     "latency_samples": len(latencies),
                     "failed_ratio": report["failed"] / report["attempted"]}}


def trace(workload: str, seed: int, deadline: float) -> dict:
    """Traced run: one untraced pass, then one traced pass, each in its own
    process, then the ceiling probe."""
    drift = drift_probe()
    base = spawn(workload, seed, "measure", deadline, passes=1)
    traced = spawn(workload, seed, "trace", deadline, passes=1)
    # Q3[3K1] is beyond the group cap today; its outcome and time are
    # reported, not gated, so that failing fast is never rewarded.
    started = time.monotonic()
    try:
        ceiling = spawn(workload, seed, "ceiling", min(deadline, started + CEILING_LIMIT_S))
    except RunFailed as exc:
        ceiling = {"exit": None, "elapsed_s": time.monotonic() - started,
                   "peak_rss_mb": 0.0, "error": str(exc)}
    wall = sum(traced["raw_latencies_s"][0])
    untraced_wall = sum(base["raw_latencies_s"][0])
    layers = traced["layers"]
    attributed = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    metrics = {**layers,
               "trace.wall_s": wall, "trace.untraced_wall_s": untraced_wall,
               "trace.overhead_s": wall - untraced_wall,
               "trace.unattributed_s": wall - attributed,
               "trace.spans": traced["spans"],
               "ceiling.elapsed_s": ceiling["elapsed_s"],
               "ceiling.blowup_group_order": ceiling.get("blowup_group_order", 0),
               "drift_probe_s": drift}
    units = {name: TRACE_UNITS.get(name) or layer_unit(name) for name in metrics}
    return {"metrics": metrics, "units": units,
            "attempted": base["attempted"] + traced["attempted"],
            "failed": base["failed"] + traced["failed"],
            "info": {"drift_probe_s": drift, "spans_file": traced["spans_file"],
                     "setup_layers": traced["setup_layers"], "ceiling": ceiling,
                     "failed_ratio": (base["failed"] + traced["failed"])
                     / (base["attempted"] + traced["attempted"])}}


def print_report(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"== {workload}: attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_ratio {info['failed_ratio']:.4f}, drift probe {info['drift_probe_s']:.4f} s")
    if "pass_s" in info:
        print(f"   {len(info['pass_s'])} passes of {info['queries_per_pass']} queries, "
              f"{info['latency_samples']} latency samples, "
              f"{len(info['setup_samples_s'])} set-up samples")
        print(f"   speed-adjusted (the speed probe took {info['speed_probe_s'] * 1e3:.4f} ms, "
              f"reference {PROBE_REF_S * 1e3:g} ms); raw in brackets")
        for name, value in result["metrics"].items():
            raw = f"({info['raw'][name]:.4f})" if name in info["raw"] else ""
            print(f"   {name:<16} {value:12.4f} {result['units'][name]:<4} {raw}")
        # p90 is not gated: it is printed only where at least ten samples
        # lie beyond it, which holds on walk-queries alone.
        if info["samples_beyond_p90"] >= 10:
            print(f"   {'query_p90_ms':<16} {info['query_p90_ms']:12.4f} ms "
                  f"({info['samples_beyond_p90']} samples beyond it, not gated)")
        return
    metrics = result["metrics"]
    for name, value in metrics.items():
        if name.startswith("trace."):
            print(f"   {name:<24} {value:12.4f} {result['units'][name]}")
    ceiling = info["ceiling"]
    print(f"   ceiling probe, blowup-demo Q3[3K1] (not gated): exit {ceiling['exit']} "
          f"after {ceiling['elapsed_s']:.2f} s, peak {ceiling['peak_rss_mb']:.0f} MiB, "
          f"{ceiling.get('error') or ceiling.get('blowup_group_order')}")
    for phase, layers in (("pass", metrics), ("set-up", info["setup_layers"])):
        busy = sorted(((layers[f"{n}.self_s"], n) for n in SPAN_NAMES
                       if layers[f"{n}.calls"]), reverse=True)
        if not busy:
            continue
        print(f"   {phase} layers by self time:")
        for self_s, name in busy:
            print(f"     {name:<44} {layers[name + '.calls']:>8} calls {self_s:10.4f} s")
    for name in COUNT_NAMES + ("walks.shunts.hit_ratio",):
        if metrics[name]:
            print(f"   {name:<44} {metrics[name]:>14.6g}")


def final_line(results: list[dict], metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def run_one(args) -> None:
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.trace:
        result = trace(args.workload, args.seed, deadline)
    else:
        result = measure(args.workload, args.seed, args.seconds, deadline)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    print_report(args.workload, result)
    print(final_line([result], result["metrics"], result["units"]))


def run_all(args) -> None:
    results, metrics, units = {}, {}, {}
    for traced in (False, True):
        for workload in WORKLOADS:
            deadline = time.monotonic() + RUN_LIMIT_S
            result = (trace(workload, args.seed, deadline) if traced else
                      measure(workload, args.seed, args.seconds, deadline))
            results[f"{workload}-trace{int(traced)}"] = result
            print_report(workload, result)
            for name, value in result["metrics"].items():
                metrics[f"{workload}.{name}"] = value
                units[f"{workload}.{name}"] = result["units"][name]
    (OUT / f"results-seed{args.seed}.json").write_text(json.dumps(results, indent=1))
    print(final_line(list(results.values()), metrics, units))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload; default: all, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "consistentwalks" / "__init__.py").is_file():
        print(f"error: no consistentwalks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload:
            run_one(args)
        else:
            run_all(args)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
