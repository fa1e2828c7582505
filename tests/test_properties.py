"""Property tests: random triples beyond the fixed acceptance cases, the
truncated product and the Kronecker semigroup against the lr oracle, and the
rectangular ladder at l = 4."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronquiver.engine import KroneckerQuery, kronecker, truncated_product
from kronquiver.partitions import Partition, partitions_of
from kronquiver.symfunc import kron_via_lr

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def triples(draw):
    """(mu, nu, lambda, l): |mu| = |nu| = |lambda| = n <= 12, mu and nu with at
    most l <= 4 rows, lambda with at most two."""
    l = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    shapes = list(partitions_of(n, max_length=l))
    mu = draw(st.sampled_from(shapes))
    nu = draw(st.sampled_from(shapes))
    lam = draw(st.sampled_from(list(partitions_of(n, max_length=2))))
    return mu, nu, lam, l


@PROPERTY
@given(triples())
def test_three_methods_agree(triple):
    report = kronecker(KroneckerQuery(*triple), "all")
    assert len(report.values) == 3 and report.agree, report.values


@PROPERTY
@given(triples())
def test_coefficient_symmetric_in_mu_and_nu(triple):
    mu, nu, lam, l = triple
    straight = kronecker(KroneckerQuery(mu, nu, lam, l), "polytope").g
    swapped = kronecker(KroneckerQuery(nu, mu, lam, l), "polytope").g
    assert straight == swapped


@st.composite
def rank3_triples(draw):
    """(mu, nu, lambda): |mu| = |nu| = |lambda| = n <= 10, mu and nu with at
    most three rows, lambda with at most two."""
    n = draw(st.integers(1, 10))
    shapes = list(partitions_of(n, max_length=3))
    mu = draw(st.sampled_from(shapes))
    nu = draw(st.sampled_from(shapes))
    lam = draw(st.sampled_from(list(partitions_of(n, max_length=2))))
    return mu, nu, lam


@PROPERTY
@given(rank3_triples())
def test_rank_stability_from_l3_to_the_certified_l4(triple):
    # l = 3 has no certificate table and l = 4 does, so this checks the scan
    # from the certified root box against the scan without one.
    at3 = kronecker(KroneckerQuery(*triple, 3), "polytope")
    at4 = kronecker(KroneckerQuery(*triple, 4), "polytope")
    assert at3.g == at4.g, (at3.counts, at4.counts)


@st.composite
def pairs(draw):
    """(mu, nu, l): |mu| = |nu| = n <= 10, both with at most l <= 4 rows."""
    l = draw(st.integers(1, 4))
    shapes = list(partitions_of(draw(st.integers(1, 10)), max_length=l))
    return draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes)), l


@settings(PROPERTY, max_examples=40)
@given(pairs())
def test_truncated_product_is_the_sum_of_lr_coefficients(pair):
    mu, nu, l = pair
    expected = {lam: kron_via_lr(lam, mu, nu)
                for lam in partitions_of(mu.size, max_length=2)}
    assert truncated_product(mu, nu, l).coeffs == {p: g for p, g in expected.items() if g}


@st.composite
def lr_triples(draw):
    """(lambda, mu, nu): |lambda| = |mu| = |nu| = n <= 8, mu and nu with at
    most four rows, lambda with at most two."""
    n = draw(st.integers(0, 8))
    shapes = list(partitions_of(n, max_length=4))
    lam = draw(st.sampled_from(list(partitions_of(n, max_length=2))))
    return lam, draw(st.sampled_from(shapes)), draw(st.sampled_from(shapes))


def _row_sum(p, q):
    return Partition(p[i] + q[i] for i in range(max(p.length, q.length)))


@settings(PROPERTY, max_examples=300)
@given(lr_triples(), lr_triples())
def test_kronecker_semigroup(a, b):
    # g(a) > 0 and g(b) > 0 imply g(a + b) > 0 (Christandl-Harrow-Mitchison)
    if kron_via_lr(*a) > 0 and kron_via_lr(*b) > 0:
        assert kron_via_lr(*map(_row_sum, a, b)) > 0


@pytest.mark.parametrize("k", range(1, 13))
def test_rectangular_ladder_matches_lr(k):
    """(k^4)^2 / (2k, 2k) at l = 4, by the polytope method and the lr oracle."""
    rect = Partition((k,) * 4)
    query = KroneckerQuery(rect, rect, Partition((2 * k, 2 * k)), 4)
    assert kronecker(query, "polytope").g == kronecker(query, "lr").g
