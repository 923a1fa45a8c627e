from fractions import Fraction

import pytest

from jacklax.errors import BoxNotInPartition
from jacklax.partitions import (SeriesZ, add_set, boxes, count_by_corners,
                                count_lattice_q, count_partitions, diagram_union,
                                format_partition, hook, hooks_lower,
                                hooks_upper, lattice_points, parse_partition, partitions_of, rem_set,
                                rem_set_plus, series_P, series_P_xt, series_Q,
                                star_product, transpose)


def is_partition(rows):
    rows = [r for r in rows if r]
    return all(rows[i] >= rows[i + 1] for i in range(len(rows) - 1))


def brute_add_set(lam):
    out = []
    for i in range(len(lam) + 1):
        rows = list(lam) + [0]
        rows[i] += 1
        if is_partition(rows):
            out.append((i, lam[i] if i < len(lam) else 0))
    return sorted(out)


def test_parse_and_format():
    assert parse_partition("1^2,2^2,3") == (3, 2, 2, 1, 1)
    assert parse_partition("2,1,1") == (2, 1, 1)
    assert parse_partition("0") == ()
    assert format_partition((2, 2, 1)) == "1,2^2"
    assert format_partition(()) == "0"
    assert parse_partition(format_partition((5, 3, 3, 1))) == (5, 3, 3, 1)


def test_add_set_examples():
    assert add_set(()) == ((0, 0),)
    assert add_set((1,)) == ((0, 1), (1, 0))
    assert add_set((2, 1)) == ((0, 2), (1, 1), (2, 0))


def test_rem_set_plus_examples():
    assert rem_set_plus((1,)) == ((1, 1),)
    assert rem_set_plus((2, 1)) == ((1, 2), (2, 1))
    assert rem_set_plus(()) == ()


def test_add_rem_brute_force():
    for n in range(11):
        for lam in partitions_of(n):
            assert sorted(add_set(lam)) == brute_add_set(lam)
            assert len(add_set(lam)) == len(rem_set(lam)) + 1
            assert transpose(transpose(lam)) == lam
            assert sorted((j, i) for (i, j) in add_set(lam)) == \
                sorted(add_set(transpose(lam)))


def test_hook_worked_value():
    lam = parse_partition("1^2,2^2,3")
    assert hook(lam, (2, 0), "upper") == (2, -2)


def test_single_box_hooks():
    assert hook((1,), (0, 0), "upper") == (0, -1)
    assert hook((1,), (0, 0), "lower") == (1, 0)


def test_hook_multiset_of_norm_example():
    lam = parse_partition("1,2^2")
    assert sorted(hooks_lower(lam)) == sorted([(1, 0), (2, -1), (3, -1), (1, 0), (2, 0)])
    assert sorted(hooks_upper(lam)) == sorted([(0, -1), (1, -2), (2, -2), (0, -1), (1, -1)])


def test_hook_outside_raises():
    with pytest.raises(BoxNotInPartition):
        hook((2, 1), (1, 1), "upper")


def test_star_product():
    mu = parse_partition("1,3")
    nu = parse_partition("1,2^2")
    sp = star_product(mu, nu)
    assert sum(sp.values()) == 20  # |mu| * |nu|
    assert len(sp) == 12           # distinct boxes
    assert star_product(mu, (1,)) == {b: 1 for b in boxes(mu)}
    assert star_product((1,), (1,)) == {(0, 0): 1}
    assert star_product(mu, nu) == star_product(nu, mu)


def test_diagram_union():
    assert diagram_union((2, 1), (1, 1)) == (2, 1)
    assert diagram_union((3,), ()) == (3,)
    assert diagram_union((2, 2), (2, 2)) == (2, 2)
    assert diagram_union((2, 2), (3, 1)) == (3, 2)


def test_counts():
    assert [count_partitions(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    # minima statistics (note p(3,3)=1 per the generating function)
    assert count_by_corners(3, 2) == 2 and count_by_corners(3, 3) == 1
    assert count_by_corners(4, 2) == 3 and count_by_corners(4, 3) == 2
    for n in range(9):
        assert sum(count_by_corners(n, r) for r in range(n + 2)) == count_partitions(n)


def test_lattice_q():
    def brute(n):
        return sum(1 for m in range(n + 2) for k in range(n + 2)
                   if (m + 1) * (k + 1) <= n + 1)
    for n in range(12):
        assert count_lattice_q(n) == brute(n)
    assert count_lattice_q(4) == 10
    for n in range(1, 9):
        addables = {s for lam in partitions_of(n) for s in add_set(lam)}
        assert addables == set(lattice_points(n)) - {(0, 0)}


def test_series_P():
    P = series_P(12)
    for n in range(13):
        assert P.coeff(n) == count_partitions(n)


def test_series_P_xt_low_order():
    Pxt = series_P_xt(4)
    expected = {(0, 1): 1, (1, 2): 1, (2, 2): 2, (3, 2): 2, (3, 3): 1,
                (4, 2): 3, (4, 3): 2}
    for (n, r), c in expected.items():
        assert Pxt.coeff(n, r) == c
    for n in range(5):
        for r in range(n + 2):
            assert Pxt.coeff(n, r) == count_by_corners(n, r)


def test_series_P_xt_properties():
    assert series_P_xt(8).subs_t_poly([1]) == series_P(8)
    s = series_P_xt(12).subs_t_poly([1, -1])
    assert all(s.coeff(i) == (1 if i == 0 else 0) for i in range(13))
    lhs = series_P_xt(12).dt_at_1()
    rhs = series_P(12) / SeriesZ(12, [Fraction(1), Fraction(-1)])
    assert lhs == rhs


def test_series_Q():
    Q = series_Q(10)
    for n in range(11):
        assert Q.coeff(n) == count_lattice_q(n)


def test_total_minima_count():
    # sum over lam |- n of |add_set| equals [x^n] P(x)/(1-x)
    ser = series_P(9) / SeriesZ(9, [Fraction(1), Fraction(-1)])
    for n in range(10):
        total = sum(len(add_set(lam)) for lam in partitions_of(n))
        assert total == ser.coeff(n)
