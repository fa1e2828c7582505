"""The benchmark's workloads: each is a list of operations with the value each
one must produce.

An operation is one coefficient triple, truncated product, LP certificate,
section diagnosis or verification suite.  `run_ops` times each operation,
checks its result and never drops a failure.  Inputs come only from the
workload name and the seed; the run length sets how many rounds run them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from kronquiver import cli, engine, lattice, linalg, semiinv
from kronquiver.partitions import Partition, partitions_of, partitions_to_weight

# The random triples of coeff-ladder and oracles-large-n are one fixed panel
# per workload, drawn from this seed; the run's seed sets their order.  Fresh
# triples per seed would add their own seed-to-seed spread (simulated from 400
# timed l=4 triples: 11% on wall_s, 20% on op_p50_s, interquartile range over
# median) because a few triples cost 20 to 50 times the median.
PANEL_SEED = 1504_02970

# Every workload runs at least this many operations per round, so that its
# p90 latency has ten operations beyond it.
MIN_OPS = 100


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]   # None when the result is right


@dataclass
class Record:
    label: str
    seconds: float
    error: str | None
    value: str
    # Sub-operations timed inside one call, as (seconds, error) pairs; empty
    # when the operation is timed as a whole.
    parts: list = field(default_factory=list)


class Timed:
    """Result of an operation that timed its own sub-operations."""

    def __init__(self, result, parts):
        self.result = result
        self.parts = parts


def run_ops(ops) -> list[Record]:
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, never dropped
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        parts = []
        if isinstance(result, Timed):
            parts, result = result.parts, result.result
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        value = "exception" if result is None else _digest(result)
        records.append(Record(op.label, seconds, error, value, parts))
    return records


def _digest(result) -> str:
    if hasattr(result, "to_json_dict"):
        result = result.to_json_dict()
        result.pop("elapsed", None)
    return json.dumps(result, sort_keys=True, default=str)


# ---------------------------------------------------------------------------
# Helpers shared by the workloads.

def _cli(argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return [code, out.getvalue()]
    return run


def _coeff_op(mu, nu, lam, l, expected=None) -> Op:
    argv = ["coeff", "--mu", mu, "--nu", nu, "--lam", lam, "--l", str(l),
            "--method", "all", "--format", "json"]

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        payload = json.loads(text)
        values = set(payload["methods"].values())
        if len(payload["methods"]) != 3 or len(values) != 1 or not payload["agree"]:
            return f"methods disagree: {payload['methods']}"
        if expected is not None and payload["g"] != expected:
            return f"g = {payload['g']}, expected {expected}"
        return None

    return Op(f"coeff {mu}/{nu}/{lam} l={l}", _cli(argv), check)


def _truncated_op(mu, nu, expected) -> Op:
    argv = ["truncated", "--mu", mu, "--nu", nu, "--format", "json"]

    def check(result):
        code, text = result
        if code != 0:
            return f"exit code {code}"
        pretty = json.loads(text)["pretty"]
        return None if pretty == expected else f"got {pretty}, expected {expected}"

    return Op(f"truncated {mu}/{nu}", _cli(argv), check)


def _text(p: Partition) -> str:
    return ",".join(str(x) for x in p.parts)


def _panel(count, n_values, max_rows, seed):
    """``count`` triples (mu, nu, lambda) with two-row lambda, sizes cycling
    through ``n_values``, mu and nu uniform among partitions with at most
    ``max_rows`` rows; shuffled by ``seed``."""
    rng = random.Random(PANEL_SEED)
    triples = []
    for i in range(count):
        n = n_values[i % len(n_values)]
        pool = list(partitions_of(n, max_length=max_rows))
        mu, nu = rng.choice(pool), rng.choice(pool)
        lam = rng.choice(list(partitions_of(n, max_length=2)))
        triples.append((mu, nu, lam))
    random.Random(seed).shuffle(triples)
    return triples


# ---------------------------------------------------------------------------
# coeff-ladder: the scan-node hot path, issued through the CLI.

LADDER = (
    ("5,4,3", "4,3,2,2,1", "9,3", 5, 2),
    ("6,6,6", "6,6,6", "9,9", 3, 0),
    ("5,5,5,5", "5,5,5,5", "10,10", 4, 1),
    ("7,6,5", "5,4,3,3,2,1", "12,6", 6, 2),
)
TRUNCATED = (
    ("3,3,2,1", "3,2,2,2", "s[8,1] + 2*s[7,2] + 2*s[6,3] + 2*s[5,4]"),
    ("5,5,5,5", "5,5,5,5", "s[20] + s[18,2] + s[17,3] + 2*s[16,4] + s[15,5] + "
                           "2*s[14,6] + s[13,7] + 2*s[12,8] + s[10,10]"),
)


def coeff_ladder(seed):
    ops = [_coeff_op(*row) for row in LADDER]
    ops += [_truncated_op(*row) for row in TRUNCATED]
    for mu, nu, lam in _panel(MIN_OPS - len(ops), range(10, 17), 4, seed):
        ops.append(_coeff_op(_text(mu), _text(nu), _text(lam), 4))
    return ops


# ---------------------------------------------------------------------------
# cross-sweep: many small sections; one cross_validate(8, 3) per round.

CROSS_CASES = 1103


def _cross_validate():
    # Time each coefficient triple inside the sweep, for the latencies; the
    # run's wall time is the whole call's.  cross_validate reaches kronecker
    # through the engine module, so rebinding it there is enough.
    parts = []
    inner = engine.kronecker

    def timed(query, method="all"):
        t0 = time.perf_counter()
        report = inner(query, method)
        parts.append((time.perf_counter() - t0,
                      None if report.agree else f"methods disagree: {report.values}"))
        return report

    engine.kronecker = timed
    try:
        report = engine.cross_validate(8, 3, jobs=1)
    finally:
        engine.kronecker = inner
    if len(parts) != report.cases:
        raise RuntimeError(f"{len(parts)} timed triples for {report.cases} cases")
    return Timed(report, parts)


def _check_cross(report):
    if report.cases != CROSS_CASES or not report.all_agree:
        return f"cases={report.cases} all_agree={report.all_agree}, expected {CROSS_CASES} and True"
    return None


def cross_sweep(seed):
    # cross_validate takes no random input, so the seed changes nothing here.
    return [Op("cross_validate(8, 3, jobs=1)", _cross_validate, _check_cross)]


# ---------------------------------------------------------------------------
# oracles-large-n: the character and LR oracles only, no lattice call.

def _oracle_op(mu, nu, lam) -> Op:
    query = engine.KroneckerQuery.create(mu, nu, lam)

    def run():
        chars = engine.kronecker(query, method="characters").values["characters"]
        lr = engine.kronecker(query, method="lr").values["lr"]
        return [chars, lr]

    def check(values):
        return None if values[0] == values[1] else f"characters {values[0]} != lr {values[1]}"

    return Op(f"oracles {mu}/{nu}/{lam}", run, check)


def oracles_large_n(seed):
    return [_oracle_op(*t) for t in _panel(180, range(18, 27), 6, seed)]


# ---------------------------------------------------------------------------
# exact-structure: exact LP and semi-invariants; the scan does not run.

def _irredundancy_op(rows, r) -> Op:
    # A rational point satisfying every other row strictly while violating
    # row r certifies that row r is irredundant.
    ge = [rows[i] for i in range(len(rows)) if i != r]
    ge.append(tuple(-x for x in rows[r]))
    return Op(f"irredundant l=3 row {r}", lambda: linalg.lp_feasible(ge, [1] * len(ge)),
              lambda ok: None if ok is True else "no certificate")


def _diagnose_op(mu, nu) -> Op:
    sigma = partitions_to_weight(mu, nu, 2)
    return Op(f"diagnose l=2 {mu}/{nu}",
              lambda: lattice.diagnose(engine.section_for(sigma)),
              lambda status: None if status == lattice.BOUNDED else f"status {status}")


def _verify_op(fn, seed) -> Op:
    return Op(f"{fn.__name__}(3, 50, {seed})", lambda: fn(3, 50, seed),
              lambda report: None if report.ok else f"failures {report.failures[:2]}")


def exact_structure(seed):
    rows = engine._cone(3).row_vectors()
    ops = [_irredundancy_op(rows, r) for r in range(len(rows))]
    # Every l=2 sigma-section with |mu| = |nu| <= 8, in an order set by the
    # seed: a seeded sample of 76 of them moved the p90 by up to a third
    # between seeds, because the costliest sections take twice the median.
    pairs = [(mu, nu) for n in range(1, 9) for mu in partitions_of(n, max_length=2)
             for nu in partitions_of(n, max_length=2)]
    random.Random(seed).shuffle(pairs)
    ops += [_diagnose_op(mu, nu) for mu, nu in pairs]
    ops.append(_verify_op(semiinv.verify_exchange, seed))
    ops.append(_verify_op(semiinv.verify_group_actions, seed))
    return ops


# ---------------------------------------------------------------------------

# name: (operations for a seed, cone ranks built during set-up, approximate
# seconds of one round on the tuning host: 2 vCPUs, Python 3.11)
WORKLOADS = {
    "coeff-ladder": (coeff_ladder, (3, 4, 5, 6), 16),
    "cross-sweep": (cross_sweep, (1, 2, 3), 5),
    "oracles-large-n": (oracles_large_n, (), 20),
    "exact-structure": (exact_structure, (2, 3), 20),
}


def rounds(name, seconds) -> int:
    """Rounds in a run of about ``seconds``."""
    return max(1, round(seconds / WORKLOADS[name][2]))


def setup(name):
    for l in WORKLOADS[name][1]:
        engine._cone(l)


def build(name, seed):
    return WORKLOADS[name][0](seed)
