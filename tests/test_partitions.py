import pytest

from kronquiver.partitions import (Partition, Weight,
                                   lambda_of_index_set, lambda_omega,
                                   partitions_of, partitions_to_weight,
                                   weight_to_partitions)


def P(*parts):
    return Partition(parts)


def test_partition_canonical_storage():
    assert P(3, 2, 0, 0).parts == (3, 2)
    assert P().parts == ()
    assert P(3, 2).size == 5 and P(3, 2).length == 2
    assert P(3, 2)[0] == 3 and P(3, 2)[5] == 0
    with pytest.raises(ValueError):
        P(1, 2)
    with pytest.raises(ValueError):
        P(2, -1)


def test_partition_text_round_trip():
    assert str(P(2, 1)) == "2,1"
    assert Partition.from_text("2,1") == P(2, 1)
    assert Partition.from_text("") == P()
    assert str(P()) == ""


def test_conjugate_examples():
    assert P(1, 1, 1).conjugate() == P(3)
    assert P().conjugate() == P()
    # box-count oracle: column heights of the Young diagram
    assert P(3, 2).conjugate() == P(2, 2, 1)


def box_count_conjugate(p):
    boxes = {(r, c) for r, part in enumerate(p) for c in range(part)}
    cols = {}
    for (r, c) in boxes:
        cols[c] = cols.get(c, 0) + 1
    return Partition(sorted(cols.values(), reverse=True))


def test_conjugate_involution_exhaustive():
    for n in range(13):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p
            assert p.conjugate() == box_count_conjugate(p)


def test_lambda_of_index_set():
    assert lambda_of_index_set([1]) == P()
    assert lambda_of_index_set([3, 1]) == P(1)
    # formula: (5-3, 4-2, 2-1), cross-checked by hand
    assert lambda_of_index_set([5, 4, 2]) == P(2, 2, 1)
    with pytest.raises(ValueError):
        lambda_of_index_set([2, 2])
    with pytest.raises(ValueError):
        lambda_of_index_set([3, 0])


def test_lambda_omega():
    assert lambda_omega(P(2, 1)) == (3, 0)
    assert lambda_omega(P(1, 1)) == (2, 0)
    assert lambda_omega(P(3)) == (4, -1)
    with pytest.raises(ValueError):
        lambda_omega(P(2, 1, 1))


def test_partitions_to_weight_examples():
    w = partitions_to_weight(P(2, 1), P(2, 1), 2)
    assert (w.neg, w.pos) == ((-1, -1), (1, 1))
    assert str(w) == "-1,-1;1,1"
    for n in (1, 3, 5):
        assert partitions_to_weight(P(n), P(n), 1) == Weight(1, (-n,), (n,))
    # sigma(-i) = -(mu(i) - mu(i+1)) in display order sigma(-1),...,sigma(-l)
    assert partitions_to_weight(P(1, 1), P(2), 2) == Weight(2, (0, -1), (2, 0))
    with pytest.raises(ValueError):
        partitions_to_weight(P(2), P(1), 1)
    with pytest.raises(ValueError):
        partitions_to_weight(P(1, 1), P(2), 1)


def conjugate_reconstruction(sigma):
    """Independent dictionary oracle: mu* collects -sigma(-i) rows of size i."""
    mu_conj = []
    nu_conj = []
    for i in range(sigma.l, 0, -1):
        mu_conj.extend([i] * (-sigma.neg[i - 1]))
        nu_conj.extend([i] * sigma.pos[i - 1])
    return Partition(mu_conj).conjugate(), Partition(nu_conj).conjugate()


def test_weight_to_partitions():
    w = Weight.from_text("-1,-1;1,1")
    assert weight_to_partitions(w) == (P(2, 1), P(2, 1))
    assert weight_to_partitions(Weight(3, (0, 0, 0), (0, 0, 0))) == (P(), P())
    assert weight_to_partitions(Weight.from_text("-2,0;2,0")) == \
        conjugate_reconstruction(Weight.from_text("-2,0;2,0"))
    # (-2,0;0,1) is balanced (both weighted sums are 2) and hence valid
    assert weight_to_partitions(Weight.from_text("-2,0;0,1")) == (P(2), P(1, 1))
    with pytest.raises(ValueError):
        Weight(2, (-2, 0), (1, 0))  # unbalanced: 2 != 1
    with pytest.raises(ValueError):
        Weight(2, (1, -1), (0, 0))  # wrong sign pattern


def test_round_trip_exhaustive():
    for n in range(9):
        for mu in partitions_of(n, max_length=4):
            for nu in partitions_of(n, max_length=4):
                sigma = partitions_to_weight(mu, nu, 4)
                assert all(v <= 0 for v in sigma.neg)
                assert all(v >= 0 for v in sigma.pos)
                assert sigma.size == n
                assert weight_to_partitions(sigma) == (mu, nu)
                assert conjugate_reconstruction(sigma) == (mu, nu)


def test_partitions_of_bounds():
    assert [p.parts for p in partitions_of(4, max_length=2)] == \
        [(4,), (3, 1), (2, 2)]
    assert [p.parts for p in partitions_of(0)] == [()]
    assert list(partitions_of(-1)) == []
    assert all(p[0] <= 2 for p in partitions_of(6, max_part=2))
