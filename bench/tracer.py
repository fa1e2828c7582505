"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the kronquiver modules from outside the
package, by rebinding module attributes, and records for each wrapped name its
call count, inclusive seconds and seconds spent outside other wrapped calls
(self time).  A few work outcomes are recorded at the same boundaries: pruned
scan nodes, lattice points returned, and the per-method timings that
`engine.kronecker` already reports.  Nothing inside the package is changed.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

from kronquiver import cli, diamond, engine, lattice, linalg, semiinv, symfunc


def _propagate_key(args, kwargs):
    # The root call of a scan passes no max_rounds; every scan node passes one.
    node = kwargs.get("max_rounds", args[3] if len(args) > 3 else None) is not None
    return "linalg.propagate_box.node" if node else "linalg.propagate_box.root"


class Tracer:
    """Counts and times calls into the package's modules while installed."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.secs = defaultdict(float)
        self.self_secs = defaultdict(float)
        self.outcomes = defaultdict(float)
        self._open = []      # seconds spent in wrapped children, per open span
        self._saved = []     # (module, name, original) to restore

    def _wrap(self, fn, key, observe=None):
        key_of = key if callable(key) else (lambda args, kwargs: key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = key_of(args, kwargs)
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._open.pop()
                self.calls[name] += 1
                self.secs[name] += dt
                self.self_secs[name] += dt - child
                if self._open:
                    self._open[-1] += dt
            if observe is not None:
                observe(name, result)
            return result

        return traced

    def _patch(self, module, name, key, observe=None, also=()):
        """Wrap ``module.name`` and rebind the same wrapper wherever another
        module imported the function by name."""
        original = getattr(module, name)
        wrapper = self._wrap(original, key, observe)
        for mod in (module, *also):
            if getattr(mod, name) is not original:
                raise RuntimeError(f"{mod.__name__}.{name} is not {module.__name__}.{name}")
            self._saved.append((mod, name, original))
            setattr(mod, name, wrapper)

    def _on_node(self, name, box):
        if name.endswith(".node") and box is None:
            self.outcomes["linalg.propagate_box.pruned"] += 1

    def _on_count(self, name, count):
        self.outcomes["lattice.points"] += count

    def _on_enumerate(self, name, points):
        self.outcomes["lattice.points"] += len(points)

    def _on_kronecker(self, name, report):
        for method, seconds in report.timings.items():
            self.outcomes[f"engine.{method}.s"] += seconds

    def install(self):
        self._patch(linalg, "propagate_box", _propagate_key, self._on_node)
        self._patch(linalg, "solve_integer_system", "linalg.solve_integer_system")
        self._patch(linalg, "solve_lp", "linalg.solve_lp")
        # engine (and cli) import these by name, so the module attribute alone
        # would miss their calls.
        self._patch(lattice, "count_points", "lattice.count_points", self._on_count,
                    also=(engine,))
        self._patch(lattice, "enumerate_points", "lattice.enumerate_points",
                    self._on_enumerate, also=(engine, cli))
        self._patch(lattice, "diagnose", "lattice.diagnose")
        self._patch(diamond, "cone_inequalities", "diamond.cone_inequalities",
                    also=(engine, cli))
        # cli reaches these through the engine module, so one rebinding is enough.
        self._patch(engine, "kronecker", "engine.kronecker", self._on_kronecker)
        self._patch(engine, "section_for", "engine.section_for")
        self._patch(engine, "truncated_product", "engine.truncated_product")
        self._patch(engine, "cross_validate", "engine.cross_validate")
        for name in ("kron_characters", "kron_via_lr", "mn_character", "lr_coeff"):
            self._patch(symfunc, name, f"symfunc.{name}")
        for name in ("det_frac", "eval_schofield", "verify_exchange", "verify_group_actions"):
            self._patch(semiinv, name, f"semiinv.{name}")
        self._patch(cli, "main", "cli.main")

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "secs": dict(self.secs),
                "self_secs": dict(self.self_secs), "outcomes": dict(self.outcomes)}


# Per-layer metrics of the traced run, name -> unit, as BENCHMARK.json lists
# them.  The name's first part is the layer; NOTES.md says which end-to-end
# metric each should move.  `layer_metrics` fills them all.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}

_CALLS_AND_SECONDS = (
    "linalg.solve_integer_system", "engine.section_for", "lattice.count_points",
    "lattice.enumerate_points", "linalg.solve_lp", "lattice.diagnose",
    "symfunc.kron_characters", "symfunc.kron_via_lr", "symfunc.mn_character",
    "symfunc.lr_coeff", "semiinv.det_frac", "semiinv.eval_schofield",
    "engine.kronecker", "cli.main",
)


def layer_metrics(result, trace_overhead_s) -> dict:
    """Per-layer metric values of one traced round: a worker result holding a
    tracer snapshot and the memo sizes at the start and end of the round."""
    snap = result["trace"]
    calls, secs, self_secs, outcomes = (defaultdict(float, snap[key]) for key in
                                        ("calls", "secs", "self_secs", "outcomes"))
    memo = result["memo"]
    lr_growth = memo["lr_end"] - memo["lr_start"]
    lr_entries, mn_entries = memo["lr_end"], memo["mn_end"]

    node = "linalg.propagate_box.node"
    root = "linalg.propagate_box.root"
    out = {
        "linalg.propagate_box.node_calls": calls[node],
        "linalg.propagate_box.node_s": secs[node],
        "linalg.propagate_box.pruned": outcomes["linalg.propagate_box.pruned"],
        "lattice.points_per_node": outcomes["lattice.points"] / calls[node] if calls[node] else 0.0,
        "linalg.propagate_box.root_calls": calls[root],
        "linalg.propagate_box.root_s": secs[root],
        "symfunc.lr_memo.hit_ratio": (1 - lr_growth / calls["symfunc.lr_coeff"]
                                      if calls["symfunc.lr_coeff"] else 0.0),
        "symfunc.lr_memo.entries": lr_entries,
        "symfunc.mn_memo.entries": mn_entries,
        "semiinv.verify_exchange.s": secs["semiinv.verify_exchange"],
        "semiinv.verify_group_actions.s": secs["semiinv.verify_group_actions"],
        "engine.polytope.s": outcomes["engine.polytope.s"],
        "engine.characters.s": outcomes["engine.characters.s"],
        "engine.lr.s": outcomes["engine.lr.s"],
        "engine.truncated_product.s": secs["engine.truncated_product"],
        "engine.cross_validate.s": secs["engine.cross_validate"],
        "cli.main.self_s": self_secs["cli.main"],
        "diamond.cone_inequalities.s": secs["diamond.cone_inequalities"],
        "bench.trace_overhead_s": trace_overhead_s,
    }
    for name in _CALLS_AND_SECONDS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = secs[name]
    for name, unit in PER_LAYER.items():
        if unit == "count":
            out[name] = int(out[name])
    missing = set(PER_LAYER) ^ set(out)
    if missing:
        raise AssertionError(f"per-layer metric table and values differ: {sorted(missing)}")
    return out
