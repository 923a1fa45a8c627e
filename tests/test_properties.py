"""Property tests: the partition box moves and the two text formats
round-trip, and a combination of basis vectors expands back to its
coefficients."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacklax.arith import BiPoly, Coeff, parse_coeff, render_coeff  # noqa: E402
from jacklax.fock import bump, v_accum  # noqa: E402
from jacklax.partitions import (add_box, add_set, eigen_pairs,  # noqa: E402
                                format_partition, parse_partition, partitions_of,
                                remove_box)

PARTITIONS = st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n)))
BIPOLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.integers(-6, 6), max_size=4).map(BiPoly)
# distinct primes, so the denominators of distinct terms are pairwise coprime
BIG_PRIMES = (2**31 - 1, 2**61 - 1, 2**89 - 1, 2**107 - 1, 10**9 + 7, 10**9 + 9,
              998244353, 1000003)
NUMERATORS = st.integers(-10**12, 10**12).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_remove_box_undoes_add_box(data):
    lam = data.draw(PARTITIONS)
    s = data.draw(st.sampled_from(add_set(lam)))
    assert remove_box(add_box(lam, s), s) == lam


@settings(max_examples=60, deadline=None)
@given(PARTITIONS)
def test_partition_text_roundtrip(lam):
    assert parse_partition(format_partition(lam)) == lam


@settings(max_examples=60, deadline=None)
@given(BIPOLYS, BIPOLYS.filter(bool))
def test_coeff_text_roundtrip(num, den):
    c = Coeff(num, den)
    assert parse_coeff(render_coeff(c)) == c


def _expands_back(data, labels, basis, expand):
    """Sum random terms q * basis(label), q with pairwise coprime large
    denominators, plus q' and -q' on one label, and expand the sum."""
    chosen = data.draw(st.lists(st.sampled_from(labels), min_size=1,
                                max_size=min(5, len(labels)), unique=True))
    dens = data.draw(st.permutations(BIG_PRIMES))
    terms = [(lab, Fraction(data.draw(NUMERATORS), d)) for lab, d in zip(chosen, dens)]
    q = Fraction(data.draw(NUMERATORS), dens[-1])
    lab = data.draw(st.sampled_from(labels))
    terms += [(lab, q), (lab, -q)]
    vec, want = {}, {}
    for lab, q in terms:
        v_accum(vec, basis(lab), q)
        bump(want, lab, q)
    assert list(expand(vec).items()) == [(lab, want[lab]) for lab in labels if lab in want]


# the last default point has fractional e1, e2, so the dual rows carry
# denominators too
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_jack_combination_expands_back(spec_all, data):
    ws = spec_all[-1]
    labels = partitions_of(data.draw(st.integers(1, 6)))
    _expands_back(data, labels, ws.jack, ws.expand_in_jacks)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_psi_hat_combination_expands_back(spec_all, data):
    ws = spec_all[-1]
    labels = eigen_pairs(data.draw(st.integers(1, 5)))
    _expands_back(data, labels, lambda p: ws.psi_hat(*p), ws.expand_psi_hat)
