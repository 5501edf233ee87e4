"""One sample of a workload, in a fresh process.

Started by run.py; prints one JSON line. Modes:

- ``setup``: set up as a measuring run would, report set-up time, exit.
- ``measure``: set up, then run timed passes over the workload's query
  list until ``--passes`` passes are done, or, with ``--passes 0``, until
  ``--seconds`` have gone by. Every answer is checked after its pass,
  outside the timed region.
- ``trace``: as ``measure``, with every layer boundary traced.
- ``ceiling``: run Q3[3K1] ``blowup-demo`` once and report how it ended.

``--t0`` is ``time.monotonic()`` in the parent just before the spawn, so
set-up time starts at process start.

The machine's speed drifts, so in ``setup`` and ``measure`` mode a timer
times a fixed slice of permutation work (the speed probe) every
``SAMPLE_INTERVAL_S``, also in the middle of a query. A time is reported
both raw and speed-adjusted: raw is the interval minus the probes run
inside it; adjusted is raw scaled by ``PROBE_REF_S`` over the median
probe inside the interval (or the nearest probe, for an interval too
short to hold one), that is, seconds at the speed where the probe takes
``PROBE_REF_S``. Trace mode runs no probes, so that no span holds one.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import time
import traceback
from pathlib import Path

PROBE_REF_S = 0.0007
SAMPLE_INTERVAL_S = 0.1
_PROBE_PERMS = tuple(tuple((m * i + s) % 16 for i in range(16))
                     for m in (1, 3, 5, 7) for s in range(16))


def probe() -> float:
    """Time a fixed slice of the library's kind of work: compositions of
    permutation tuples into a set, and an element filter. The fastest of
    three repeats, so that an interrupt does not count as a slow machine."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        seen = set()
        for g in _PROBE_PERMS:
            for h in _PROBE_PERMS[:8]:
                seen.add(tuple(h[i] for i in g))
        [g for g in _PROBE_PERMS * 8 if g[3] == 5]
        best = min(best, time.perf_counter() - started)
    return best


class SpeedSampler:
    """Runs the speed probe from a SIGALRM handler every SAMPLE_INTERVAL_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.probes: list[float] = []
        self.costs: list[float] = []   # handler time, taken out of raw times
        self._sample(signal.SIGALRM, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def _sample(self, signum, frame) -> None:
        if len(self.starts) != len(self.costs):
            return   # a signal inside the handler: skip, keep starts sorted
        start = time.perf_counter()
        self.starts.append(start)
        self.probes.append(probe())
        self.costs.append(time.perf_counter() - start)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, adjusted) seconds of the interval [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.costs[lo:hi])
        if hi > lo:
            speed = statistics.median(self.probes[lo:hi])
        else:
            nearest = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                          key=lambda i: abs(self.starts[i] - start))
            speed = self.probes[nearest]
        return raw, raw * PROBE_REF_S / speed


def peak_rss_mb() -> float:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_pass(workload, tracer) -> tuple[list[tuple[float, float]], list[tuple]]:
    """Answer every query once; return each query's (start, end) and outcome."""
    from consistentwalks.errors import ConsistentWalksError
    intervals, outcomes = [], []
    clock = time.perf_counter
    for index, query in enumerate(workload.queries):
        if tracer is not None:
            tracer.query = index
        t = clock()
        try:
            outcome = ("ok", workload.execute(query))
        except ConsistentWalksError as exc:
            outcome = ("error", exc)
        except Exception:   # a traceback is a failed query, not a failed run
            outcome = ("traceback", traceback.format_exc())
        intervals.append((t, clock()))
        outcomes.append(outcome)
    if tracer is not None:
        tracer.query = -1
    return intervals, outcomes


def ceiling_probe() -> dict:
    from consistentwalks import cli
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["blowup-demo", "--graph", "hypercube:3", "--m", "3"])
    elapsed = time.perf_counter() - started
    outcome = {"exit": code, "elapsed_s": elapsed, "peak_rss_mb": peak_rss_mb()}
    if code == 0:
        outcome["blowup_group_order"] = json.loads(out.getvalue())["payload"]["blowup_group_order"]
    else:
        outcome["error"] = json.loads(err.getvalue())
    return outcome


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace", "ceiling"],
                        required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    if args.mode == "ceiling":
        print(json.dumps(ceiling_probe()))
        return
    main_started = time.perf_counter()
    sampler = tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        sampler = SpeedSampler()
    args.work_dir.mkdir(parents=True, exist_ok=True)
    import workloads
    workload = workloads.build(args.workload, args.seed, args.work_dir)
    setup_s, setup_end = time.monotonic() - args.t0, time.perf_counter()
    result: dict = {"raw_setup_s": setup_s}
    if sampler is not None:
        # set-up before main() ran no probes; the sampled part sets the speed
        raw, adjusted = sampler.measure(main_started, setup_end)
        result["raw_setup_s"] = setup_s - (setup_end - main_started - raw)
        result["setup_s"] = result["raw_setup_s"] * adjusted / raw
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(result))
        return

    raw_latencies, latencies, problems = [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        intervals, outcomes = run_pass(workload, tracer)
        if sampler is None:
            raw_latencies.append([end - start for start, end in intervals])
        else:
            measured = [sampler.measure(start, end) for start, end in intervals]
            raw_latencies.append([raw for raw, _ in measured])
            latencies.append([adjusted for _, adjusted in measured])
        for index, (query, outcome) in enumerate(zip(workload.queries, outcomes)):
            found = workload.check(index, query, outcome)
            attempted += 1
            failed += bool(found)
            problems += found
        if len(raw_latencies) == args.passes or (
                not args.passes and time.perf_counter() - started >= args.seconds):
            break
    if sampler is not None:
        sampler.stop()
        result.update(latencies_s=latencies, speed_probe_s=statistics.median(sampler.probes))
    result.update(raw_latencies_s=raw_latencies, attempted=attempted, failed=failed,
                  problems=problems[:20], peak_rss_mb=peak_rss_mb(),
                  labels=[q.label for q in workload.queries])
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(in_pass=True)
        result["setup_layers"] = tracer.layer_metrics(in_pass=False)
        result["spans"] = len(tracer.spans)
        spans_path = args.work_dir / "spans.jsonl"
        tracer.write_spans(spans_path, {"workload": args.workload, "seed": args.seed})
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
