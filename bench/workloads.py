"""Workload definitions and seeded input generators.

Every input is made here from the seed, without calling jacklax, so the
inputs do not change when the program does.
"""

import random
from fractions import Fraction

# Suites per workload, in run order, each at its CLI default size.  The split
# follows which layer dominates the suite's profile: the Jack-dual expansion
# (`expand_in_jacks` -> `inner_hbar`) for spec-lr, the dense psi-hat solver
# and the trace for spec-eigen, Gram-Schmidt over Q(e1,e2) for symbolic.
SUITE_WORKLOADS = {
    "spec-lr": ("specialized", ("main-theorem", "shc", "delta", "tau")),
    "spec-eigen": ("specialized", ("traces", "spectral", "kernel", "cokernel")),
    "symbolic": ("symbolic", ("main-theorem",)),
}
QUERY_WORKLOAD = "cli-queries"
WORKLOADS = tuple(SUITE_WORKLOADS) + (QUERY_WORKLOAD,)

# Degree the query workload warms its disk cache to; every pool query stays
# at or below it, so no query builds a Jack basis.
QUERY_DEGREE = 6


def verify_argv(suite, mode, points_text=None):
    argv = ["verify", suite, "--mode", mode, "--jobs", "1", "--format", "json"]
    if points_text is not None:
        # The `=` form is required: argparse reads a separate value that
        # starts with "-" (a negative e1) as an option and exits with code 2.
        argv.append("--spec-points=" + points_text)
    return argv


# ---------------------------------------------------------------------------
# specialization points
# ---------------------------------------------------------------------------

def _digits(rng, n):
    return rng.randrange(10 ** (n - 1), 10 ** n)


def _one_digit_fraction(rng):
    while True:
        num, den = rng.randrange(1, 10), rng.randrange(2, 10)
        if Fraction(num, den).denominator == den:
            return Fraction(num, den)


def spec_points(seed, valid=None):
    """Three points shaped like jacklax's DEFAULT_SPEC_POINTS.

    Two integer points (5/4 and 4/6 digits, e1 < 0 < e2) and one point whose
    coordinates are one-digit fractions.  `valid(e1, e2)` may reject a point,
    which is then drawn again.
    """
    rng = random.Random("points-%d" % seed)
    draws = (
        lambda: (-_digits(rng, 5), _digits(rng, 4)),
        lambda: (-_digits(rng, 4), _digits(rng, 6)),
        lambda: (-_one_digit_fraction(rng), _one_digit_fraction(rng)),
    )
    points = []
    for draw in draws:
        while True:
            e1, e2 = draw()
            if (e1, e2) not in points and (valid is None or valid(e1, e2)):
                points.append((e1, e2))
                break
    return points


def points_text(points):
    return ";".join("%s,%s" % (Fraction(a), Fraction(b)) for a, b in points)


# ---------------------------------------------------------------------------
# query pool
# ---------------------------------------------------------------------------

def partitions_of(n, maxpart=None):
    """Partitions of n as descending tuples, largest first part first."""
    if n == 0:
        return [()]
    maxpart = n if maxpart is None else maxpart
    out = []
    for k in range(min(n, maxpart), 0, -1):
        out.extend((k,) + rest for rest in partitions_of(n - k, k))
    return out


def addable_boxes(lam):
    out = []
    for i in range(len(lam) + 1):
        cur = lam[i] if i < len(lam) else 0
        if i == 0 or lam[i - 1] > cur:
            out.append((i, cur))
    return out


def _ptext(lam):
    return ",".join(str(p) for p in lam)


def query_pool():
    """[(stratum, argv)] for every query of degree 1..QUERY_DEGREE.

    A stratum is (kind, degree), and (psi, degree, partition) for psi
    queries, whose cost depends on the partition more than on the box.
    Kinds: jack-show, jack-norm, psi, lr, lr-hatted.  An lr query's degree
    is |mu| + |nu|.
    """
    pool = []
    for n in range(1, QUERY_DEGREE + 1):
        for lam in partitions_of(n):
            pool.append((("jack-show", n), ["jack", "show", _ptext(lam)]))
        for lam in partitions_of(n):
            pool.append((("jack-norm", n), ["jack", "norm", _ptext(lam)]))
        for lam in partitions_of(n):
            for s in addable_boxes(lam):
                pool.append((("psi", n, _ptext(lam)),
                             ["psi", "show", _ptext(lam), "(%d,%d)" % s]))
        pairs = []
        for a in range(1, n // 2 + 1):
            left, right = partitions_of(a), partitions_of(n - a)
            for i, mu in enumerate(left):
                for j, nu in enumerate(right):
                    if a < n - a or j >= i:
                        pairs.append((mu, nu))
        for kind, extra in (("lr", []), ("lr-hatted", ["--hatted"])):
            for mu, nu in pairs:
                pool.append(((kind, n), ["lr", "compute", "--mu", _ptext(mu),
                                         "--nu", _ptext(nu)] + extra))
    return pool


def query_kind(argv):
    """The per-command latency bucket: jack, psi or lr."""
    return argv[0]


def query_mix(seed):
    """Half of every stratum of the pool (rounded up), in a seeded order.

    Sampling per stratum keeps the mix's composition, and so its cost, the
    same for every seed; the seed picks which queries and their order.
    """
    rng = random.Random("queries-%d" % seed)
    strata = {}
    for stratum, argv in query_pool():
        strata.setdefault(stratum, []).append(argv)
    mix = []
    for stratum in sorted(strata):
        items = strata[stratum]
        mix.extend(rng.sample(items, (len(items) + 1) // 2))
    rng.shuffle(mix)
    return mix
