"""Exact dense linear algebra.

rank runs fraction-free on the numerators of cleared rows: integers, or
integer polynomials (BiPoly).  invert and matvec run over any field whose
elements support +, -, *, / and truthiness (Fraction or Coeff)."""

from .errors import JackLaxError


def invert(A, field):
    """Inverse of a square matrix (raises if singular).

    Not called at runtime: the test oracles use it, with matvec, and
    bench/tracer.py wraps both by name."""
    n = len(A)
    M = [list(row) + [field.one if i == j else field.zero for j in range(n)]
         for i, row in enumerate(A)]
    for c in range(n):
        pr = None
        for i in range(c, n):
            if M[i][c]:
                pr = i
                break
        if pr is None:
            raise JackLaxError("singular matrix")
        M[c], M[pr] = M[pr], M[c]
        pv = M[c][c]
        M[c] = [v / pv for v in M[c]]
        for i in range(n):
            if i != c and M[i][c]:
                f = M[i][c]
                M[i] = [M[i][j] - f * M[c][j] for j in range(2 * n)]
    return [row[n:] for row in M]


def matvec(A, x, field):
    out = []
    for row in A:
        acc = field.zero
        for a, v in zip(row, x):
            if a and v:
                acc = acc + a * v
        out.append(acc)
    return out


def rank(A):
    """Rank of a matrix of integers or of integer polynomials (BiPoly,
    whose // is exact division), by Bareiss' fraction-free elimination.

    Each pivot step replaces the rows below by
    (pivot * row - lead * pivot_row) // previous pivot; by Sylvester's
    identity every entry stays a minor of A, so the division is exact and
    no fraction is made.  Pass the numerators of cleared rows: scaling a
    row does not change the rank."""
    M = [list(row) for row in A]
    n = len(M)
    m = len(M[0]) if n else 0
    r = 0
    prev = 1
    for c in range(m):
        pr = next((i for i in range(r, n) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        top = M[r]
        p = top[c]
        for i in range(r + 1, n):
            row, a = M[i], M[i][c]
            M[i][c + 1:] = [(p * x - a * y) // prev
                            for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = p
        r += 1
        if r == n:
            break
    return r
