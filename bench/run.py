"""Benchmark of kronquiver: run one workload and print its metrics.

    python3 bench/run.py --workload coeff-ladder --seed 1 --seconds 20 --trace 0

Workloads: coeff-ladder, cross-sweep, oracles-large-n, exact-structure (see
NOTES.md for why each exists).  Every round of a workload runs in a fresh
interpreter with cold memos, single process.  Every operation's result is
checked; a wrong value, disagreement, exception or crashed round counts as a
failure.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 the untraced rounds are followed by one
traced round, and the object holds that round's per-layer metrics.  The lines
before it name each metric with its unit and sample count, and record the
Python version, nproc and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Set-up is timed this many extra times per run, besides once per round.
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170


def _child_env():
    env = dict(os.environ)
    # A memo file would warm the runs and be written outside the checkout.
    env.pop("KRON_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, env):
    """Run worker.py once; return (seconds from spawn to ready, result) or
    (None, error text)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"round timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(lines[-1])
    if not Path(result["kronquiver"]).resolve().is_relative_to(SRC):
        return None, f"imported kronquiver from {result['kronquiver']}, not {SRC}"
    return result["ready"] - t0, result


def _revision():
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown"


def _nproc():
    # What nproc reports: the CPUs this process may run on, not the host's.
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


class Tally:
    """Operations of one pass over the rounds of a run.

    Every round runs the same calls on the same inputs in a fresh
    interpreter, so a call's time is its least time over the rounds:
    contention from other work on the host only ever adds time, and it seldom
    hits one call in every round.  A call is one operation, or a suite that
    times each of its operations itself (cross_validate and its triples).
    `wall_s` sums the calls' times; the latencies are the operations' times.
    """

    def __init__(self):
        self.call_times = []  # per call, its seconds in each round
        self.op_times = []    # per operation, its seconds in each round
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.values = []      # per round, the digest of each result
        self.round_walls = []
        self.rss_mb = 0.0

    def add_round(self, result):
        self.rss_mb = max(self.rss_mb, result["rss_mb"])
        calls = []
        ops = []
        values = []
        for label, seconds, error, value, parts in result["records"]:
            calls.append(seconds)
            values.append(value)
            if parts:
                ops += [p[0] for p in parts]
                # A failed suite check fails every operation in it.
                errors = [error] * len(parts) if error else [p[1] for p in parts if p[1]]
            else:
                ops.append(seconds)
                errors = [error] if error else []
            self.attempted += len(parts) or 1
            self.failed += len(errors)
            if errors:
                self.errors.append(f"{label}: {errors[0]}")
        self.values.append(values)
        self.round_walls.append(sum(calls))
        if not self.merge(self.call_times, calls) or not self.merge(self.op_times, ops):
            self.add_crash("a round ran a different number of operations")

    @staticmethod
    def merge(times, new):
        if not times:
            times += [[t] for t in new]
        elif len(new) != len(times):
            return False
        else:
            for ts, t in zip(times, new):
                ts.append(t)
        return True

    def add_crash(self, error):
        self.attempted += 1
        self.failed += 1
        self.errors.append(error)

    @property
    def latencies(self):
        return [min(ts) for ts in self.op_times]

    @property
    def wall_s(self):
        return sum(min(ts) for ts in self.call_times)


def _pass(workload, seed, n_rounds, trace, env, setup_samples):
    tally = Tally()
    results = []
    for _ in range(n_rounds):
        setup_s, result = _spawn(["--workload", workload, "--seed", str(seed),
                                  "--trace", str(trace)], env)
        if setup_s is None:
            tally.add_crash(result)
            continue
        setup_samples.append(setup_s)
        tally.add_round(result)
        results.append(result)
    return tally, results


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kronquiver" / "__init__.py").is_file():
        print(f"error: no kronquiver sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if "KRON_CACHE_DIR" in os.environ:
        print("note: KRON_CACHE_DIR is cleared for the benchmark's interpreters",
              file=sys.stderr)
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = _child_env()
    print(f"python={platform.python_version()} nproc={_nproc()} commit={_revision()}")

    setup_samples = []
    for _ in range(SETUP_PROBES):
        setup_s, result = _spawn(["--workload", args.workload, "--seed", str(args.seed),
                                  "--setup-only"], env)
        if setup_s is None:
            print(f"error: set-up failed: {result}", file=sys.stderr)
            return 1
        setup_samples.append(setup_s)

    n_rounds = workloads.rounds(args.workload, args.seconds)
    plain, _ = _pass(args.workload, args.seed, n_rounds, 0, env, setup_samples)
    if any(v != plain.values[0] for v in plain.values):
        plain.add_crash("rounds on the same inputs gave different results")
    attempted, failed, errors = plain.attempted, plain.failed, plain.errors
    if args.trace:
        # One traced round: its work counters are exact, and its times are
        # compared with the untraced rounds' times.
        traced, traced_results = _pass(args.workload, args.seed, 1, 1, env, setup_samples)
        if plain.values and any(v != plain.values[0] for v in traced.values):
            traced.add_crash("traced results differ from untraced results")
        attempted += traced.attempted
        failed += traced.failed
        errors += traced.errors

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"rounds={n_rounds} trace={args.trace} attempted={attempted} "
          f"failed={failed} error_rate={failed / max(attempted, 1)} "
          f"round_walls_s={plain.round_walls}")
    for error in errors[:20]:
        print(f"FAILED {error}")

    samples = {}
    if args.trace:
        from tracer import PER_LAYER, layer_metrics
        overhead = sum(traced.round_walls) - statistics.median(plain.round_walls or [0.0])
        # A crashed traced round is already a failure; its metrics read 0.
        values = (layer_metrics(traced_results[0], overhead) if traced_results
                  else dict.fromkeys(PER_LAYER, 0))
        metrics = {name: _metric(values[name], PER_LAYER[name]) for name in PER_LAYER}
    else:
        lat = plain.latencies or [0.0]
        deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else lat * 9
        metrics = {
            "setup_s": _metric(statistics.median(setup_samples), "s"),
            "wall_s": _metric(plain.wall_s, "s"),
            "ops_per_s": _metric(len(lat) / plain.wall_s if plain.wall_s else 0.0, "1/s"),
            "op_p50_s": _metric(deciles[4], "s"),
            "op_p90_s": _metric(deciles[8], "s"),
            "peak_rss_mb": _metric(plain.rss_mb, "MB"),
        }
        samples = {"setup_s": len(setup_samples), "op_p50_s": len(lat), "op_p90_s": len(lat)}
    for name, m in metrics.items():
        extra = f" (n={samples[name]})" if name in samples else ""
        print(f"{name} = {m['value']} {m['unit']}{extra}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
