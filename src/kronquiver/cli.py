"""Command-line surface: coefficient queries, truncated products, cone and
point-set emission, and the verification suites.

Exit codes: 0 success, 2 parse error, 3 invariant violation, 4 internal
disagreement or verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import engine, fanhex, semiinv
from .diamond import PAPER_DIAMOND2_ALIAS, cone_inequalities, diamond_vertices
from .lattice import SectionError, enumerate_points
from .partitions import Partition, Weight

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_DISAGREE = 4


class CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _partition(text):
    try:
        return Partition.from_text(text)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad partition {text!r}: {exc}")


def _weight(text):
    try:
        return Weight.from_text(text)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, f"bad weight {text!r}: {exc}")


def _int_at_least(low):
    """Argparse type for an int no smaller than ``low``."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _emit(payload, fmt, text_lines):
    """The one output path: the payload as JSON, or the lines that
    ``text_lines`` renders from it."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(text_lines(payload)) + "\n"


def _vertex_lines(l):
    lines = []
    alias = {str(v): str(n) for n, v in PAPER_DIAMOND2_ALIAS.items()} if l == 2 else {}
    for v in diamond_vertices(l):
        name = str(v)
        extra = f" (= x{alias[name]})" if name in alias else ""
        lines.append(f"# {name}{extra}")
    return lines


def cmd_coeff(args):
    mu, nu, lam = _partition(args.mu), _partition(args.nu), _partition(args.lam)
    query = engine.KroneckerQuery.create(mu, nu, lam, args.l)
    report = engine.kronecker(query, args.method)
    payload = report.to_json_dict()
    payload.pop("timings", None)  # byte-identical reruns

    def text(p):
        lines = [f"mu={p['mu']} nu={p['nu']} lambda={p['lambda']} l={p['l']} sigma={p['sigma']}"]
        if "counts" in p:
            lines.append(f"counts: lambda={p['counts']['lambda']} "
                         f"lambda_omega={p['counts']['lambda_omega']}")
        for m, v in p["methods"].items():
            lines.append(f"{m} = {v}")
        lines.append(f"g = {p['g']}")
        lines.append(f"agree: {'yes' if p['agree'] else 'NO'}")
        return lines

    out = _emit(payload, args.format, text)
    return (EXIT_OK if report.agree else EXIT_DISAGREE), out


def cmd_truncated(args):
    mu, nu = _partition(args.mu), _partition(args.nu)
    expansion = engine.truncated_product(mu, nu, args.l)
    payload = {
        "mu": str(mu), "nu": str(nu),
        "expansion": {f"({p})": c for p, c in expansion.items()},
        "pretty": str(expansion),
    }
    return EXIT_OK, _emit(payload, args.format, lambda p: [p["pretty"]])


def cmd_cone(args):
    cone = cone_inequalities(args.l)
    return EXIT_OK, _emit(cone.to_json_dict(), args.format,
                          lambda p: cone.to_hrep().splitlines())


def cmd_enumerate(args):
    sigma = _weight(args.sigma)
    if args.l is not None and args.l != sigma.l:
        raise CliError(EXIT_INVARIANT,
                       f"--l {args.l} does not match the weight (l = {sigma.l})")
    lam = None
    if args.lam is not None:
        p = _partition(args.lam)
        if p.length > 2:
            raise CliError(EXIT_INVARIANT, "lambda must have at most two rows")
        if p.size != sigma.size:
            raise CliError(EXIT_INVARIANT, "partitions must have equal size")
        lam = (p[0], p[1])
    l = sigma.l
    points = enumerate_points(engine.section_for(sigma, lam))
    payload = {
        "l": l, "sigma": str(sigma),
        "vertices": [str(v) for v in diamond_vertices(l)],
        "points": [{"g": list(g), "lambda_weight": list(engine.lambda_weight_of(g, l))}
                   for g in points],
        "count": len(points),
    }
    if l == 2:
        payload["paper_alias"] = {str(n): str(v) for n, v in PAPER_DIAMOND2_ALIAS.items()}
    return EXIT_OK, _emit(payload, args.format,
                          lambda p: _vertex_lines(l) + [" ".join(map(str, g)) for g in points])


def cmd_hilbert(args):
    series = fanhex.fan_hilbert(fanhex.diamond2_fan())
    reference = fanhex.diamond2_closed_form()
    matches = series.equals(reference)
    payload = {
        "target": "diamond2",
        "numerator": [{"exponent": list(e), "coeff": str(c)}
                      for e, c in sorted(series.numerator.terms.items())],
        "denominator": [{"vector": list(w), "multiplicity": m}
                        for w, m in sorted(series.denominator.items())],
        "matches_closed_form": matches,
    }

    def text(p):
        lines = ["numerator:"]
        for t in p["numerator"]:
            lines.append(f"  {t['coeff']} * z^{tuple(t['exponent'])}")
        lines.append("denominator factors (1 - z^w):")
        for t in p["denominator"]:
            lines.append(f"  w={tuple(t['vector'])} x{t['multiplicity']}")
        lines.append(f"matches closed form: {'yes' if p['matches_closed_form'] else 'NO'}")
        return lines

    return (EXIT_OK if matches else EXIT_DISAGREE), _emit(payload, args.format, text)


def cmd_phi(args):
    l = args.l
    matrix = fanhex.phi_matrix(l)
    verts = fanhex.hex_vertices(l)
    payload = {
        "l": l,
        "rows": [str(v) for v in diamond_vertices(l)],
        "columns": [list(c) for c in verts],
        "matrix": [list(r) for r in matrix],
    }
    if args.g is not None:
        try:
            g = tuple(int(t) for t in args.g.split(","))
        except ValueError as exc:
            raise CliError(EXIT_PARSE, f"bad point {args.g!r}: {exc}")
        if len(g) != l * (l + 1):
            raise CliError(EXIT_INVARIANT,
                           f"point must have {l * (l + 1)} coordinates")
        image = fanhex.phi_image(l, g)
        payload["g"] = list(g)
        payload["image"] = [{"cell": list(c), "value": v}
                            for c, v in sorted(image.items())]
        payload["in_hexagon_cone"] = fanhex.hex_membership(l, image)

    def text(p):
        lines = []
        if "image" in p:
            for t in p["image"]:
                lines.append(f"h{tuple(t['cell'])} = {t['value']}")
            lines.append(f"in hexagon cone: {'yes' if p['in_hexagon_cone'] else 'NO'}")
        else:
            for name, row in zip(p["rows"], p["matrix"]):
                lines.append(f"{name}: " + " ".join(str(x) for x in row))
        return lines

    return EXIT_OK, _emit(payload, args.format, text)


def cmd_verify(args):
    fmt = args.format
    if args.suite in ("exchange", "actions"):
        verify = (semiinv.verify_exchange if args.suite == "exchange"
                  else semiinv.verify_group_actions)
        report = verify(args.l, args.trials, args.seed)
        payload = report.to_json_dict()
        ok = report.ok
    elif args.suite == "fan":
        fan = fanhex.diamond2_fan()
        ok, issues = fanhex.check_unimodular_fan(fan)
        # fan_hilbert raises on a fan that fails the check, so it runs only
        # on one that passes.
        series_ok = ok and fanhex.fan_hilbert(fan).equals(fanhex.diamond2_closed_form())
        ok = series_ok
        payload = {"relation": "fan", "ok": ok, "issues": issues,
                   "series_matches": series_ok}
    elif args.suite == "tu":
        ok, issues = fanhex.check_tu_blocks(args.l)
        payload = {"relation": "tu-blocks", "l": args.l, "ok": ok, "issues": issues}
    else:  # cross; argparse admits no other suite
        jobs = args.jobs or _available_cpus()
        report = engine.cross_validate(args.n_max, args.l_max, jobs)
        payload = report.to_json_dict()
        ok = report.all_agree

    return (EXIT_OK if ok else EXIT_DISAGREE), _emit(
        payload, fmt, lambda p: [f"{k}: {v}" for k, v in p.items()])


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform
    has one, else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def build_parser():
    """The argument parser, built once: ``main`` reuses it for every argv."""
    parser = argparse.ArgumentParser(
        prog="kronquiver",
        description="Kronecker coefficients with two-row lambda via "
                    "diamond-quiver lattice-point counting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="Kronecker coefficient for one triple")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--lam", required=True)
    p.add_argument("--l", type=_positive_int, default=None)
    p.add_argument("--method", default="all", choices=["all", *engine.METHODS])
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.set_defaults(handler=cmd_coeff)

    p = sub.add_parser("truncated", help="2-truncated Kronecker product")
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", required=True)
    p.add_argument("--l", type=_positive_int, default=None)
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.set_defaults(handler=cmd_truncated)

    p = sub.add_parser("cone", help="emit the diamond cone")
    p.add_argument("--l", type=_positive_int, required=True)
    p.add_argument("--format", default="hrep", choices=["hrep", "json"])
    p.set_defaults(handler=cmd_cone)

    p = sub.add_parser("enumerate", help="lattice points of a weight section")
    p.add_argument("--l", type=_positive_int, default=None, help="inferred from sigma")
    p.add_argument("--sigma", required=True)
    p.add_argument("--lam", default=None)
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser("verify", help="verification suites")
    p.set_defaults(handler=cmd_verify)
    vsub = p.add_subparsers(dest="suite", required=True)
    suites = {name: vsub.add_parser(name)
              for name in ("exchange", "actions", "fan", "tu", "cross")}
    for name, trials in (("exchange", 50), ("actions", 20)):
        suites[name].add_argument("--l", type=_positive_int, required=True)
        suites[name].add_argument("--trials", type=_positive_int, default=trials)
        suites[name].add_argument("--seed", type=int, default=0)
    suites["tu"].add_argument("--l", type=_positive_int, required=True)
    v = suites["cross"]
    v.add_argument("--n-max", type=_int_at_least(0), required=True)
    v.add_argument("--l-max", type=_positive_int, required=True)
    v.add_argument("--jobs", type=_positive_int, default=None,
                   help="worker processes, at most one per 8 (mu, nu) pairs; "
                        "defaults to the available parallelism")
    for v in suites.values():
        v.add_argument("--format", default="json", choices=["json", "text"])

    p = sub.add_parser("hilbert", help="Hilbert series of a known fan")
    p.add_argument("which", choices=["diamond2"])
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("phi", help="the diamond-to-hexagon comparison map")
    p.add_argument("--l", type=_positive_int, required=True)
    p.add_argument("--g", default=None, help="comma-separated point to map")
    p.add_argument("--format", default="text", choices=["json", "text"])
    p.set_defaults(handler=cmd_phi)
    return parser


_VALUE_FLAGS = {"--sigma", "--g", "--mu", "--nu", "--lam"}


def _merge_dashed_values(argv):
    """Fold 'FLAG value' into 'FLAG=value' so weights like -1,-1;1,1 parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_dashed_values(list(argv)))
    try:
        code, output = args.handler(args)
        sys.stdout.write(output)
        return code
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except (ValueError, SectionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVARIANT
    except (AssertionError, ArithmeticError) as exc:
        # A failed internal check, such as a negative polytope difference or
        # a non-integral character sum, is a disagreement and not a crash.
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DISAGREE


if __name__ == "__main__":
    sys.exit(main())
