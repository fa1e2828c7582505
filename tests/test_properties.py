"""Property tests: random triples beyond the fixed acceptance cases."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kronquiver.engine import KroneckerQuery, kronecker
from kronquiver.partitions import partitions_of

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
