"""cross_validate counts one sigma-section per (mu, nu) pair: the pair's
torus-weight histogram against the two lambda-section counts, the pair memo's
lifetime, and the cap on worker processes."""

import concurrent.futures

import pytest

from kronquiver import engine
from kronquiver.engine import (KroneckerQuery, _torus_histogram, cross_validate,
                               kronecker, polytope_counts)
from kronquiver.partitions import (Partition, lambda_omega, partitions_of,
                                   partitions_to_weight)


def P(*parts):
    return Partition(parts)


def _sweep_pairs(n_max, l_max):
    for n in range(n_max + 1):
        for mu in partitions_of(n, max_length=l_max):
            for nu in partitions_of(n, max_length=l_max):
                yield mu, nu


def _assert_histogram_matches(mu, nu):
    sigma = partitions_to_weight(mu, nu, engine._default_l(mu, nu))
    hist = _torus_histogram(sigma)
    for lam in partitions_of(mu.size, max_length=2):
        got = (hist[lam[0], lam[1]], hist[lambda_omega(lam)])
        assert got == polytope_counts(sigma, lam), (mu, nu, lam)


def test_histogram_equals_polytope_counts_on_every_cross_section():
    pairs = list(_sweep_pairs(6, 3))
    assert sum(len(list(partitions_of(mu.size, max_length=2)))
               for mu, _ in pairs) == cross_validate(6, 3).cases
    for mu, nu in pairs:
        _assert_histogram_matches(mu, nu)


@pytest.mark.parametrize("mu, nu", [
    (P(1, 1, 1, 1), P(2, 2)),
    (P(2, 1, 1, 1), P(3, 1, 1)),
    (P(3, 1, 1, 1), P(2, 2, 1, 1)),
    (P(3, 3, 2, 2), P(4, 2, 2, 2)),
])
def test_histogram_equals_polytope_counts_at_rank4(mu, nu):
    # Rank 4 sections carry the certificate box; a sigma-section takes the
    # certificates without torus rows.
    _assert_histogram_matches(mu, nu)


def _count_calls(monkeypatch, name):
    calls = []
    inner = getattr(engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, name, counted)
    return calls


def test_cross_validate_enumerates_one_section_per_pair(monkeypatch):
    counts = _count_calls(monkeypatch, "count_points")
    enums = _count_calls(monkeypatch, "enumerate_points")
    rep = cross_validate(5, 3)
    assert rep.all_agree and rep.cases > 0
    assert counts == []
    assert len(enums) == len(list(_sweep_pairs(5, 3)))
    assert engine._pair_memo is None


def test_lone_query_counts_its_two_lambda_sections(monkeypatch):
    counts = _count_calls(monkeypatch, "count_points")
    enums = _count_calls(monkeypatch, "enumerate_points")
    rep = kronecker(KroneckerQuery.create(P(3, 2, 1), P(3, 2, 1), P(4, 2)), "all")
    assert rep.agree
    assert len(counts) == 2 and enums == []


def test_pair_memo_is_cleared_when_a_case_raises(monkeypatch):
    seen = []

    def failing_lr(lam, mu, nu, m=2):
        seen.append(dict(engine._pair_memo))
        raise RuntimeError("lr failed")

    monkeypatch.setattr(engine.symfunc, "kron_via_lr", failing_lr)
    with pytest.raises(RuntimeError, match="lr failed"):
        cross_validate(3, 2)
    assert engine._pair_memo is None
    # The polytope count ran first and left its pair's one histogram.
    assert len(seen) == 1 and len(seen[0]) == 1


def test_first_discrepancy_is_the_first_case_that_disagrees(monkeypatch):
    # An LR oracle one too high at lambda = (2, 1) disagrees on the four
    # size-3 cases with that lambda; the report names the first in sweep order.
    lr = engine.symfunc.kron_via_lr

    def off_at_21(lam, mu, nu, m=2):
        return lr(lam, mu, nu, m) + (lam == P(2, 1))

    monkeypatch.setattr(engine.symfunc, "kron_via_lr", off_at_21)
    rep = cross_validate(3, 2)
    assert rep.cases - rep.agreements == 4 and not rep.all_agree
    assert rep.first_discrepancy == ((P(3), P(3), P(2, 1)),
                                     {"polytope": 0, "characters": 0, "lr": 1})
    assert rep.to_json_dict()["first_discrepancy"] == {
        "mu": str(P(3)), "nu": str(P(3)), "lambda": str(P(2, 1)),
        "methods": {"polytope": 0, "characters": 0, "lr": 1}}


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs the map in
    this process and starts nothing."""

    made = []

    def __init__(self, max_workers=None):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("n_max, l_max, jobs, workers", [
    (2, 2, 64, []),       # 6 pairs, one chunk: serial
    (5, 2, 64, [4]),      # 28 pairs, 4 chunks of 8
    (5, 2, 2, [2]),
    (5, 2, 1, []),
    (-1, 2, 8, []),       # no pairs at all
])
def test_workers_are_capped_at_the_chunk_count(monkeypatch, n_max, l_max, jobs,
                                               workers):
    monkeypatch.setattr(_RecordingPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    rep = cross_validate(n_max, l_max, jobs=jobs)
    assert _RecordingPool.made == workers
    assert rep.all_agree and rep.cases == cross_validate(n_max, l_max).cases
