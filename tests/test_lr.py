import pytest

from jacklax import lr, verify
from jacklax.errors import NotACycle
from jacklax.fock import bump
from jacklax.lr import (delta_kernel_check, delta_kernel_rank, delta_map,
                        delta_of_jack_product, determination_check, is_cycle,
                        jack_lr, jack_product, jacklax_lr, main_theorem_residual)
from jacklax.partitions import (add_box, add_set, parse_partition, partition_pairs,
                                partitions_of, size, transpose)
from jacklax.spectral import T_star, tau, with_pole
from oracles import N_fun, solved_hatted_lr


def test_worked_example(sym):
    F = sym.field
    e1, e2 = F.e1, F.e2
    tab = jack_lr(sym, (1, 1), (2,))
    assert set(tab) == {(2, 1, 1), (3, 1)}
    assert tab[parse_partition("1^2,2")] == -e2 / (e1 - e2)
    tabh = jack_lr(sym, (1, 1), (2,), hatted=True)
    assert tabh[(2, 1, 1)] == F.lf((2, 0)) * F.lf((0, -2)) / F.lf((2, -2))


def test_symmetry_and_transpose(sym):
    for mu, nu in [((1, 1), (2,)), ((2,), (2, 1))]:
        assert jack_lr(sym, mu, nu) == jack_lr(sym, nu, mu)
    # transposition covariance: c_{mu' nu'}^{gamma'}(e2,e1) = c_{mu nu}^gamma(e1,e2)
    from jacklax.arith import BiPoly, Coeff
    def swap(c):
        return Coeff(BiPoly({(j, i): v for (i, j), v in c.num.t.items()}),
                     BiPoly({(j, i): v for (i, j), v in c.den.t.items()}))
    t1 = jack_lr(sym, (1, 1), (2,))
    t2 = jack_lr(sym, (2,), (1, 1))
    t2t = jack_lr(sym, transpose((1, 1)), transpose((2,)))
    for g, c in t1.items():
        assert t2t[transpose(g)] == swap(c)


def test_kerov_table(sym):
    F = sym.field
    for lam in [(1,), (2, 1), (2, 2)]:
        tab = jack_lr(sym, (1,), lam)
        assert tab == {add_box(lam, s): tau(F, lam, s) for s in add_set(lam)}


def test_identity_table(sym):
    assert jack_lr(sym, (), (2, 1)) == {(2, 1): sym.field.one}


def test_selection_rule_support(spec):
    from jacklax.partitions import contains, diagram_union
    for total in range(2, 7):
        for a in range(1, total):
            b = total - a
            if b < a:
                continue
            for mu in partitions_of(a):
                for nu in partitions_of(b):
                    union = diagram_union(mu, nu)
                    for g, c in jack_lr(spec, mu, nu).items():
                        assert not c or contains(g, union)


def test_main_theorem_small(sym):
    assert main_theorem_residual(sym, (1, 1), (2,)) == {}
    assert main_theorem_residual(sym, (1,), (1,)) == {}
    for nu in [(2, 1), (3,), (2, 2)]:
        assert main_theorem_residual(sym, (1,), nu) == {}
    with pytest.raises(Exception):
        main_theorem_residual(sym, (), (1,))


def test_main_theorem_chat_11(sym):
    F = sym.field
    tab = jack_lr(sym, (1,), (1,), hatted=True)
    n = N_fun(F)
    assert tab[(1, 1)] == n.residue((1, 0), F)
    assert tab[(2,)] == n.residue((0, 1), F)


def test_chat_sums_to_zero(spec):
    F = spec.field
    for mu, nu in [((1,), (1,)), ((2, 1), (1, 1)), ((2,), (3, 1))]:
        tot = F.zero
        for c in jack_lr(spec, mu, nu, hatted=True).values():
            tot = tot + c
        assert not tot


def test_jacklax_marginalization(sym):
    for (lam, s, nu, t) in [((1,), (1, 0), (1,), (0, 1)),
                            ((1,), (1, 0), (2,), (1, 0)),
                            ((2, 1), (1, 1), (1,), (0, 1))]:
        marginal = {}
        for (gamma, u), c in jacklax_lr(sym, lam, s, nu, t).items():
            bump(marginal, gamma, c)
        assert marginal == jack_lr(sym, lam, nu)
        assert verify._marginalize(sym, lam, s, nu, t) == {}


def test_jacklax_identity(sym):
    tab = jacklax_lr(sym, (), (0, 0), (2, 1), (1, 1))
    assert tab == {((2, 1), (1, 1)): sym.field.one}


def test_rectangle_corner(sym):
    # the hatted coefficient onto the rectangle-minus-box m^n - v*,
    # v* = (n-1, m-1), is Res_{u=[v*]} T_{mu*nu}(u) / (u - [s+t])
    F = sym.field
    tabh = jacklax_lr(sym, (1,), (0, 1), (1,), (0, 1), hatted=True)
    val = with_pole(T_star(F, (1,), (1,)), (0, 2)).residue((0, 2), F)
    assert tabh.get(((2,), (0, 2)), F.zero) == val
    tabh2 = jacklax_lr(sym, (1,), (1, 0), (1,), (1, 0), hatted=True)
    val2 = with_pole(T_star(F, (1,), (1,)), (2, 0)).residue((2, 0), F)
    assert tabh2.get(((1, 1), (2, 0)), F.zero) == val2


def test_delta_examples(sym):
    F = sym.field
    dm = delta_map(sym, sym.jack_row((1, 1)))
    assert dm == {(0, 0): F.lf((1, 0)), (1, 0): F.lf((1, 0))}
    assert delta_map(sym, F.clear({(): F.one})) == {}
    prod = jack_product(sym, (1, 1), (2,))
    assert delta_map(sym, prod) == delta_of_jack_product(sym, (1, 1), (2,))


def test_delta_not_ring_hom(sym):
    F = sym.field
    d1 = delta_map(sym, sym.jack_row((1,)))
    assert d1 == {(0, 0): F.one}
    dd = delta_map(sym, jack_product(sym, (1,), (1,)))
    assert dd != d1  # and Delta(j1)^2 = u^{-2} is not a simple-pole function


def test_cycles(spec):
    c8 = [parse_partition(s) for s in ("1,3,4", "2^2,4", "1,2^2,3", "1^2,3^2")]
    assert is_cycle(c8)
    assert delta_kernel_check(spec, c8) == {}
    c7 = [parse_partition(s) for s in ("2^2,1^3", "2^3,1", "3,2^2", "4,2,1",
                                       "4,1^3", "3,1^4")]
    assert is_cycle(c7)
    assert delta_kernel_check(spec, c7) == {}
    with pytest.raises(NotACycle):
        delta_kernel_check(spec, [(1,), (2,)])
    assert not is_cycle([(2, 1), (2, 1)])  # boxes appear twice but no move
    assert not is_cycle(c7[:-1])           # odd length


def test_delta_kernel_ranks():
    assert delta_kernel_rank(7) == 2
    for n in range(1, 7):
        assert delta_kernel_rank(n) == 0


def test_determination(spec):
    for n in range(2, 7):
        assert determination_check(spec, n) == {}


def test_determined_tables_are_the_solved_ones(spec_all, sym):
    # below n = 7 the pole equations have full rank, and the true hatted
    # table is their solution by Gaussian elimination, in both modes
    for ws in spec_all + [sym]:
        for n in range(2, 7):
            assert determination_check(ws, n) == {}, (ws.key(), n)
            for mu, nu in partition_pairs(n):
                if size(mu) + size(nu) != n:
                    continue
                solved = solved_hatted_lr(ws, mu, nu)
                assert {g: c for g, c in solved.items() if c} == jack_lr(ws, mu, nu, hatted=True)


@pytest.mark.parametrize("wrong", ["jack_lr", "star_residues"])
def test_determination_fails_on_a_wrong_table_or_residue(spec, monkeypatch, wrong):
    # one hatted LR entry, or one residue, off by one: some pole equation
    # fails, and the check returns its residual instead of raising
    real = getattr(lr, wrong)

    def perturbed(*args, **kw):
        out = dict(real(*args, **kw))
        first = next(iter(out))
        out[first] = out[first] + 1
        return out

    monkeypatch.setattr(lr, wrong, perturbed)
    res = determination_check(spec, 4)
    assert res != {} and all(obj[0] == "pole" for obj in res)
