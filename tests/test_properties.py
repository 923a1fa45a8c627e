"""Property tests: the partition box moves and the two text formats round-trip."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from jacklax.arith import BiPoly, Coeff, parse_coeff, render_coeff  # noqa: E402
from jacklax.partitions import (add_box, add_set, format_partition,  # noqa: E402
                                parse_partition, partitions_of, remove_box)

PARTITIONS = st.integers(0, 12).flatmap(lambda n: st.sampled_from(partitions_of(n)))
BIPOLYS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          st.integers(-6, 6), max_size=4).map(BiPoly)


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
