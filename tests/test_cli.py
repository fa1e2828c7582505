import json
from pathlib import Path

import jsonschema
import pytest

from kronquiver import cli, engine, symfunc
from kronquiver.cli import main
from kronquiver.lattice import SectionError, parse_hrep
from kronquiver.linalg import UNBOUNDED
from kronquiver.partitions import partitions_of

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate(payload, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(payload, schema)


def test_coeff_text_and_exit(capsys):
    code, out = run_cli(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                        "--lam", "2,1", "--method", "all")
    assert code == 0
    assert "g = 1" in out and "agree: yes" in out
    assert "counts: lambda=2 lambda_omega=1" in out


def test_coeff_json_schema(capsys):
    code, out = run_cli(capsys, "coeff", "--mu", "1,1", "--nu", "1,1",
                        "--lam", "1,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "coeff.json")
    assert payload["g"] == 0


def test_coeff_mixed_lengths(capsys):
    code, out = run_cli(capsys, "coeff", "--mu", "2,1", "--nu", "3",
                        "--lam", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] == 0 and payload["agree"]


def test_truncated(capsys):
    code, out = run_cli(capsys, "truncated", "--mu", "2,1", "--nu", "2,1")
    assert code == 0 and out == "s[3] + s[2,1]\n"
    code, out = run_cli(capsys, "truncated", "--mu", "3", "--nu", "3")
    assert code == 0 and out == "s[3]\n"
    code, out = run_cli(capsys, "truncated", "--mu", "1,1", "--nu", "1,1")
    assert code == 0 and out == "s[2]\n"
    code, out = run_cli(capsys, "truncated", "--mu", "2,1", "--nu", "2,1",
                        "--format", "json")
    validate(json.loads(out), "truncated.json")
    assert json.dumps(json.loads(out)["expansion"]) == '{"(3)": 1, "(2,1)": 1}'


def test_enumerate_text_points(capsys):
    code, out = run_cli(capsys, "enumerate", "--l", "2", "--sigma", "-1,-1;1,1")
    assert code == 0
    points = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(points) == 6
    assert points == sorted(points, key=lambda s: [int(x) for x in s.split()])
    assert any("(= x1)" in line for line in out.splitlines())


def test_enumerate_json_schema(capsys):
    code, out = run_cli(capsys, "enumerate", "--sigma", "-1,-1;1,1",
                        "--lam", "2,1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "enumerate.json")
    assert payload["count"] == 2


def test_enumerate_rejects_lambda_of_another_size(capsys):
    # |sigma| = 6 but |lambda| = 21: exit 3 like coeff, not an empty point set.
    code = main(["enumerate", "--sigma", "-1,-1,-1;3,0,1", "--lam", "11,10"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "partitions must have equal size" in captured.err
    code, out = run_cli(capsys, "enumerate", "--sigma", "-1,-1,-1;3,0,1", "--lam", "4,2")
    assert code == 0


CONE_L2_HREP = """\
# g-vector cone of the rank-2 diamond quiver
dim 6
ineq 9
1 1 0 1 0 0  # tp+[2;1,1] suffix@1
1 0 0 1 0 0  # tp+[2;1,1] suffix@2
0 0 0 1 0 0  # tp+[2;1,1] suffix@3
1 1 0 0 0 1  # tp-[2;1,1] suffix@1
1 0 0 0 0 1  # tp-[2;1,1] suffix@2
0 0 0 0 0 1  # tp-[2;1,1] suffix@3
0 1 0 0 1 0  # tp[2;0,2] suffix@0
0 0 0 0 1 0  # tp[2;0,2] suffix@1
0 0 1 0 0 0  # e[2;2,0]
eq 0
"""


def test_cone_hrep_and_json(capsys):
    code, out = run_cli(capsys, "cone", "--l", "2", "--format", "hrep")
    assert code == 0 and out == CONE_L2_HREP
    section = parse_hrep(out)
    assert section.dim == 6 and len(section.ineqs) == 9
    code, out = run_cli(capsys, "cone", "--l", "2", "--format", "json")
    payload = json.loads(out)
    validate(payload, "cone.json")
    assert len(payload["rows"]) == 9


def test_verify_suites(capsys):
    code, out = run_cli(capsys, "verify", "exchange", "--l", "2",
                        "--trials", "5", "--seed", "7")
    assert code == 0
    validate(json.loads(out), "verify.json")
    code, out = run_cli(capsys, "verify", "actions", "--l", "2",
                        "--trials", "3", "--seed", "1")
    assert code == 0
    validate(json.loads(out), "verify.json")
    code, out = run_cli(capsys, "verify", "fan")
    assert code == 0
    validate(json.loads(out), "verify.json")
    code, out = run_cli(capsys, "verify", "tu", "--l", "2")
    assert code == 0
    validate(json.loads(out), "verify.json")
    code, out = run_cli(capsys, "verify", "cross", "--n-max", "3", "--l-max", "2")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "verify.json")
    assert payload["all_agree"]


@pytest.mark.parametrize("affinity, cpu_count, jobs", [
    ({0, 2, 5}, 8, 3),     # the affinity mask, not the host's CPU count
    (None, 8, 8),          # no affinity call on this platform
    (None, None, 1),       # nor a CPU count
])
def test_cross_jobs_default_to_usable_cpus(monkeypatch, capsys, affinity, cpu_count, jobs):
    seen = []
    cross_validate = engine.cross_validate

    def record(n_max, l_max, j):
        seen.append(j)
        return cross_validate(n_max, l_max, 1)

    monkeypatch.setattr(engine, "cross_validate", record)
    if affinity is None:
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
    code, out = run_cli(capsys, "verify", "cross", "--n-max", "2", "--l-max", "2")
    assert code == 0 and json.loads(out)["all_agree"]
    assert seen == [jobs]


def test_hilbert(capsys):
    code, out = run_cli(capsys, "hilbert", "diamond2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "hilbert.json")
    assert payload["matches_closed_form"]


def test_phi(capsys):
    code, out = run_cli(capsys, "phi", "--l", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "phi.json")
    code, out = run_cli(capsys, "phi", "--l", "2", "--g", "0,0,1,0,0,1",
                        "--format", "json")
    payload = json.loads(out)
    validate(payload, "phi.json")
    assert payload["in_hexagon_cone"]


HILBERT_DIAMOND2_TEXT = """\
numerator:
  1 * z^(0, 0, 0, 0, 0, 0)
  -1 * z^(0, 0, 0, 1, 0, 1)
  -1 * z^(1, 0, 0, 0, 1, 0)
  1 * z^(1, 0, 0, 1, 1, 1)
denominator factors (1 - z^w):
  w=(-1, 0, 0, 1, 0, 1) x1
  w=(0, 0, 0, 0, 0, 1) x1
  w=(0, 0, 0, 0, 1, 0) x1
  w=(0, 0, 0, 1, 0, 0) x1
  w=(0, 0, 1, 0, 0, 0) x1
  w=(0, 1, 0, 0, 0, 0) x1
  w=(1, -1, 0, 0, 1, 0) x1
  w=(1, 0, 0, 0, 0, 0) x1
matches closed form: yes
"""

PHI_L2_TEXT = """\
(1;1,0)+: 0 0 0 -1 1 0 1 -1 0 0 1 0 0 0
(1;0,1)+: 0 0 0 0 0 0 0 0 0 1 0 0 0 0
(2;2,0)+: 0 1 0 0 0 0 0 0 0 0 0 0 0 0
(2;1,1)+: 0 0 0 -1 1 0 0 -1 1 0 1 0 0 0
(2;0,2)+: 0 0 0 0 0 0 0 0 0 0 0 0 1 0
(1,1;2)-: 0 0 0 -1 1 0 1 -1 0 0 0 0 0 1
"""

PHI_L3_MATRIX = (
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 1 -1 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 -1 0 1 0 0 0 0 0 0 0 1 0 0 -1 0 0 0 0 0 0 0 0 0 1 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 0 -1 0 0 1 0 1 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 1 -1 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0",
    "0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0",
    "0 0 0 0 -1 0 1 0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 0 0 0 0 0 1 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 0 -1 0 0 0 0 1 0 0 1 0 0 0 0 0 0 0",
    "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0",
    "0 0 0 0 -1 0 1 0 0 0 0 0 0 0 1 0 0 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 1",
    "0 0 0 0 0 0 0 0 0 0 -1 1 0 0 0 1 -1 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0",
)

PHI_L3_G_JSON = {
    "l": 3,
    "rows": ["(1;1,0)+", "(1;0,1)+", "(2;2,0)+", "(2;1,1)+", "(2;0,2)+", "(1,1;2)-",
             "(3;3,0)+", "(3;2,1)+", "(3;1,2)+", "(3;0,3)+", "(2,1;3)-", "(1,2;3)-"],
    "columns": [[-3, 1], [-3, 2], [-3, 3], [-2, -1], [-2, 0], [-2, 1], [-2, 2], [-2, 3],
                [-1, -2], [-1, -1], [-1, 0], [-1, 1], [-1, 2], [-1, 3], [0, -2], [0, -1],
                [0, 1], [0, 2], [1, -3], [1, -2], [1, -1], [1, 0], [1, 1], [1, 2],
                [2, -3], [2, -2], [2, -1], [2, 0], [2, 1], [3, -3], [3, -2], [3, -1]],
    "matrix": [[int(x) for x in row.split()] for row in PHI_L3_MATRIX],
    "g": [1, 0, 2, 0, 0, 1, 0, 0, 0, 1, 0, 3],
    "image": [
        {"cell": [-2, 0], "value": -2},
        {"cell": [-2, 2], "value": 2},
        {"cell": [-1, 0], "value": -5},
        {"cell": [-1, 1], "value": 5},
        {"cell": [0, -2], "value": 2},
        {"cell": [0, -1], "value": 5},
        {"cell": [0, 1], "value": -5},
        {"cell": [0, 2], "value": -2},
        {"cell": [1, 0], "value": 1},
        {"cell": [2, -1], "value": 1},
        {"cell": [2, 0], "value": 2},
        {"cell": [3, -3], "value": 1},
        {"cell": [3, -2], "value": 3},
    ],
    "in_hexagon_cone": True,
}


def test_fanhex_outputs_pinned(capsys):
    code, out = run_cli(capsys, "hilbert", "diamond2")
    assert code == 0 and out == HILBERT_DIAMOND2_TEXT
    code, out = run_cli(capsys, "phi", "--l", "2")
    assert code == 0 and out == PHI_L2_TEXT
    code, out = run_cli(capsys, "phi", "--l", "3", "--g", "1,0,2,0,0,1,0,0,0,1,0,3",
                        "--format", "json")
    assert code == 0 and out == json.dumps(PHI_L3_G_JSON, indent=2) + "\n"


def test_exit_codes(capsys):
    code, _ = run_cli(capsys, "coeff", "--mu", "2x", "--nu", "2", "--lam", "2")
    assert code == 2
    code, _ = run_cli(capsys, "coeff", "--mu", "2,1", "--nu", "2", "--lam", "3")
    assert code == 3
    code, _ = run_cli(capsys, "coeff", "--mu", "2,1", "--nu", "2,1",
                      "--lam", "2,1,1")
    assert code == 3
    code, _ = run_cli(capsys, "enumerate", "--sigma", "not-a-weight")
    assert code == 2


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_subcommands_back_to_back_match_their_lone_runs(capsys):
    # The one cached parser carries nothing from one argv to the next: each
    # run gives what it gives on a freshly built parser.
    runs = [("truncated", "--mu", "2,1", "--nu", "2,1"),
            ("coeff", "--mu", "2,1", "--nu", "2", "--lam", "2,1"),
            ("coeff", "--mu", "1,1", "--nu", "1,1", "--lam", "1,1", "--format", "json")]
    alone = []
    for argv in runs:
        cli.build_parser.cache_clear()
        alone.append(run_cli(capsys, *argv))
    assert alone[0] == (0, "s[3] + s[2,1]\n")
    assert alone[1] == (3, "")
    assert [run_cli(capsys, *argv) for argv in runs + runs[::-1]] == alone + alone[::-1]


@pytest.mark.parametrize("method", ["polytope", "characters"])
def test_internal_check_failure_exits_4(capsys, monkeypatch, method):
    # A negative polytope difference or a non-integral character sum is a
    # failed internal check: exit 4 with a message, no traceback, no stdout.
    if method == "polytope":
        counts = iter((0, 1))  # n_lambda - n_lambda_omega = -1
        monkeypatch.setattr(engine, "count_points", lambda section: next(counts))
    else:
        def not_integral(*partitions):
            raise ArithmeticError("character sum is not a nonnegative integer: 1/2")
        monkeypatch.setattr(symfunc, "kron_characters", not_integral)
    code = main(["coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--method", method])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("target, name, argv", [
    (engine, "count_points",
     ("coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--method", "polytope")),
    (engine, "enumerate_points", ("truncated", "--mu", "2,1", "--nu", "2,1")),
    (cli, "enumerate_points", ("enumerate", "--sigma", "-1,-1;1,1", "--lam", "2,1")),
])
def test_unbounded_section_exits_3(capsys, monkeypatch, target, name, argv):
    # An unbounded section is an invariant violation on every command that
    # scans: exit 3 with the message, no traceback, no stdout.
    def unbounded(section):
        raise SectionError(UNBOUNDED, "coordinate 0 has no finite max")

    monkeypatch.setattr(target, name, unbounded)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: section is unbounded: coordinate 0 has no finite max\n"


@pytest.mark.parametrize("argv", [
    ("phi", "--l", "0"),
    ("phi", "--l", "-1"),
    ("verify", "tu", "--l", "-2"),
    ("coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--l", "0"),
    ("verify", "exchange", "--l", "2", "--trials", "-1"),
    ("verify", "cross", "--n-max", "3", "--l-max", "0"),
    ("verify", "cross", "--n-max", "-3", "--l-max", "2"),
    ("verify", "cross", "--n-max", "3", "--l-max", "2", "--jobs", "0"),
    ("verify", "cross", "--n-max", "3", "--l-max", "2", "--jobs", "-1"),
])
def test_nonpositive_rank_or_count_is_a_parse_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_determinism(capsys):
    args = ("coeff", "--mu", "3,2", "--nu", "2,2,1", "--lam", "3,2",
            "--method", "all", "--format", "json")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    args = ("verify", "exchange", "--l", "3", "--trials", "4", "--seed", "11")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_memo_file_in_cache_dir_is_ignored(capsys, tmp_path, monkeypatch):
    # The oracles' memos live only in the process: a memo.json left in
    # KRON_CACHE_DIR, corrupt or malformed, is neither read nor rewritten.
    corrupt = {"version": "kronquiver-memo-v1", "mn": [],
               "lr": [[list(lam.parts), list(mu.parts), list(nu.parts), 6]
                      for lam in partitions_of(3) for k in range(4)
                      for mu in partitions_of(k) for nu in partitions_of(3 - k)]}
    monkeypatch.setenv("KRON_CACHE_DIR", str(tmp_path))
    cache = tmp_path / "memo.json"
    argv = ("coeff", "--mu", "2,1", "--nu", "2,1", "--lam", "2,1", "--method", "lr")
    outputs = []
    for text in (json.dumps(corrupt), '{"version": "kronquiver-memo-v1", "lr": 5}',
                 "[1,2]"):
        cache.write_text(text)
        code, out = run_cli(capsys, *argv)
        assert code == 0 and "g = 1\n" in out
        assert cache.read_text() == text
        outputs.append(out)
    assert outputs == [outputs[0]] * 3
