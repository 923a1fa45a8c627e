"""The scalar layer's memos and ring-element sums against their plain
versions in tests/oracles.py: the memoised partition helpers, tau and tau~
memoised per field, and the tau identities, jhat_lam^dagger and the hatted
Jack LR table built on field.ratio and ring elements."""

import gc
import weakref

import pytest

from jacklax.arith import DEFAULT_SPEC_POINTS, SpecializedField, SymbolicField
from jacklax.errors import JackLaxError
from jacklax.lr import jack_lr
from jacklax.partitions import (add_box, add_set, partition_pairs, partitions_of, rem_set,
                                rem_set_plus, remove_box, transpose)
from jacklax.shc import jack_to_fock, jhat_dagger
from jacklax.spectral import tau, tau_tilde, verify_tau_identities
from oracles import (plain_add_box, plain_add_set, plain_rem_set, plain_rem_set_plus,
                     plain_remove_box, plain_tau, plain_tau_tilde, plain_transpose,
                     scalar_jack_lr, scalar_jhat_dagger, scalar_verify_tau_identities)


def _partitions(max_size):
    return [lam for n in range(max_size + 1) for lam in partitions_of(n)]


def test_partition_helpers_match_plain():
    for lam in _partitions(9):
        for helper, plain in ((add_set, plain_add_set), (rem_set, plain_rem_set),
                              (rem_set_plus, plain_rem_set_plus),
                              (transpose, plain_transpose)):
            got = helper(lam)
            assert type(got) is tuple and got == tuple(plain(lam))
        for s in plain_add_set(lam):
            assert add_box(lam, s) == plain_add_box(lam, s)
        for t in plain_rem_set(lam):
            assert remove_box(lam, t) == plain_remove_box(lam, t)


def test_helper_errors_are_not_cached():
    for _ in range(2):
        with pytest.raises(JackLaxError):
            add_box((2, 1), (0, 1))
        with pytest.raises(JackLaxError):
            remove_box((2, 1), (0, 0))


def _check_taus(field, lam):
    for s in add_set(lam):
        assert tau(field, lam, s) == plain_tau(field, lam, s)
    for t in rem_set_plus(lam):
        assert tau_tilde(field, lam, t) == plain_tau_tilde(field, lam, t)


def test_tau_memos_match_plain(spec_all, sym):
    for ws, max_size in [(ws, 9) for ws in spec_all] + [(sym, 4)]:
        for lam in _partitions(max_size):
            _check_taus(ws.field, lam)


def test_tau_memos_belong_to_their_field():
    # fresh fields, visited in turn for each partition: a memo shared
    # between fields would hand the first field's value to the others
    fields = [SpecializedField(p) for p in DEFAULT_SPEC_POINTS] + [SymbolicField()]
    for lam in _partitions(6):
        for field in fields:
            _check_taus(field, lam)
    memos = [id(m) for f in fields for m in (f.tau_memo, f.tau_tilde_memo)]
    assert len(set(memos)) == len(memos)
    # and nothing outside a field keeps it (a cache keyed by it would)
    refs = [weakref.ref(f) for f in fields]
    del fields, field
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_tau_identities_match_scalar_oracle(spec_all, sym):
    for ws, max_size in [(ws, 8) for ws in spec_all] + [(sym, 5)]:
        for lam in _partitions(max_size):
            for s in add_set(lam):
                assert (verify_tau_identities(ws.field, lam, s)
                        == scalar_verify_tau_identities(ws.field, lam, s) == {})


def test_hatted_jack_lr_matches_scalar_oracle(spec_all, sym):
    for ws, max_total in [(ws, 8) for ws in spec_all] + [(sym, 5)]:
        for mu, nu in partition_pairs(max_total):
            for hatted in (False, True):
                assert (jack_lr(ws, mu, nu, hatted=hatted)
                        == scalar_jack_lr(ws, mu, nu, hatted=hatted))


def test_jhat_dagger_matches_scalar_oracle(spec_all, sym):
    for ws, N in [(ws, 8) for ws in spec_all] + [(sym, 5)]:
        # a dense row: every Jack of degree <= N, with distinct weights
        row = jack_to_fock(ws, {nu: ws.field.num(i + 1)
                                for i, nu in enumerate(_partitions(N))})
        memo, scalar_memo = {}, {}
        for lam in _partitions(N):
            assert (jhat_dagger(ws, lam, row, memo)
                    == scalar_jhat_dagger(ws, lam, row, scalar_memo))
