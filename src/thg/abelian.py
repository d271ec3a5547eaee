"""Exact arithmetic on finitely generated abelian groups.

Groups are kept in invariant-factor form: a free rank plus a divisor chain
d1 | d2 | ... | dk of torsion coefficients.  The form is unique, so
isomorphism testing is equality testing.  Everything runs on Python
integers; Smith normal form intermediates can exceed machine words and
must not overflow.

Coordinate convention: an element of Z^r + Z/d1 + ... + Z/dk is a vector
of r + k integers, free coordinates first, torsion coordinates reduced
modulo their invariant factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from .errors import InvalidInputError

# An infinite order is 0, the invariant factor of a free Z = Z/0 (as in
# snf_diagonal): 0 * k = 0 and 0 ** 0 = 1 carry the infinity rule.
INFINITY = 0


def order_text(order: int) -> str:
    """An order as check details and messages print it: "inf" if infinite."""
    return "inf" if order == INFINITY else str(order)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix; entries are arbitrary-precision."""

    rows: int
    cols: int
    entries: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise InvalidInputError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise InvalidInputError("entry row count does not match rows")
        for row in self.entries:
            if len(row) != self.cols:
                raise InvalidInputError("ragged matrix row")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        tup = tuple(tuple(map(int, row)) for row in rows)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        return cls(len(tup), cols, tup)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidInputError("matrix product dimension mismatch")
        out = []
        for row in self.entries:
            # row times other, as a sum of other's rows: zero entries cost nothing
            acc = [0] * other.cols
            for x, other_row in zip(row, other.entries):
                if x:
                    acc = [a + x * b for a, b in zip(acc, other_row)]
            out.append(tuple(acc))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> Tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise InvalidInputError("vector length does not match matrix columns")
        return tuple(sum(map(operator.mul, row, vector)) for row in self.entries)


def det(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination.

    >>> det(IntMatrix.from_rows([[2, 4], [6, 8]]))
    -8
    >>> det(IntMatrix.identity(3))
    1
    """
    if m.rows != m.cols:
        raise InvalidInputError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: division is exact at every step.
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _gcd_step(x: int, y: int) -> Tuple[int, int, int, int]:
    """(s, t, w, v) with [[s, t], [-w, v]] unimodular, taking (x, y) to
    (g, 0) with g = gcd(x, y) > 0, by the extended Euclidean algorithm."""
    a, b, s, t, s1, t1 = x, y, 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s, t, s1, t1 = b, r, s1, t1, s - q * s1, t - q * t1
    if a < 0:
        a, s, t = -a, -s, -t
    return s, t, y // a, x // a


def _echelon(a: List[List[int]], u) -> None:
    """Hermite row-echelon form of a, in place, by unimodular row operations.

    Column by column, 2x2 extended-gcd combinations clear the entries
    below the next pivot row (one that the pivot divides is cleared by
    the pivot row, which stays as it is); the pivot is made positive and
    every entry above it reduced into [0, pivot) by floor division, which
    keeps the entries small (Kannan & Bachem, SIAM J. Comput. 1979).
    Each operation is applied to u as well, unless u is None.
    """
    mats = (a,) if u is None else (a, u)
    rows, r = len(a), 0
    for c in range(len(a[0])):
        for i in range(r + 1, rows):
            x, y = a[r][c], a[i][c]
            if y:
                s, t, w, v = (1, 0, y // x, 1) if x and not y % x else _gcd_step(x, y)
                for m in mats:
                    mr, mi = m[r], m[i]
                    if t:
                        m[r] = [s * e + t * f for e, f in zip(mr, mi)]
                    m[i] = [v * f - w * e for e, f in zip(mr, mi)]
        p = a[r][c]
        if not p:
            continue
        if p < 0:
            p = -p
            for m in mats:
                m[r] = [-e for e in m[r]]
        for i in range(r):
            q = a[i][c] // p
            if q:
                for m in mats:
                    m[i] = [e - q * f for e, f in zip(m[i], m[r])]
        r += 1
        if r == rows:
            return


def _eye(n: int) -> List[List[int]]:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def _snf(a: List[List[int]], want_transforms: bool):
    """Smith form of a; return (diag, left, right^T) as row-lists.

    left and right^T are None unless transforms were requested.  Passes
    alternate until a is diagonal: the Hermite form of a, carrying left,
    then of its transpose, carrying right^T.  Where d_i does not divide
    d_{i+1} (0 divides only 0), row i+1 is added into row i of a as it
    lies and of the transform it carries; the next pass, of the other
    kind, does not undo that but puts gcd(d_i, d_{i+1}) at (i, i).

    Termination.  Once the rows and columns before k are zero off the
    diagonal, no operation touches them again.  A row pass leaves at
    (k, k) the gcd of the rest of column k, a column pass that of row k,
    so a nonzero pivot only ever falls to one of its divisors.  It stays
    the same only if it divides its whole line, and then _echelon keeps
    the pivot's row and clears the line: row and column k are split off.
    A zero pivot of a nonzero block turns nonzero within two passes.  A
    mend makes d_i a proper divisor of d_i (or nonzero where it was 0)
    and keeps the entries before it, so the diagonals reached one after
    another fall in lexicographic order, with 0 ranked above every
    positive integer: a well-order.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = _eye(rows) if want_transforms else None
    right = _eye(cols) if want_transforms else None
    if not rows or not cols:
        return [], left, right
    n = min(rows, cols)
    u, v = left, right
    while True:
        _echelon(a, u)
        # a is echelon, so it is diagonal if nothing right of it is nonzero
        if not any(any(row[i + 1:]) for i, row in enumerate(a)):
            diag = [a[k][k] for k in range(n)]
            i = next((i for i in range(n - 1) if (diag[i + 1] % diag[i]
                                                  if diag[i] else diag[i + 1])), None)
            if i is None:
                return diag, left, right
            for m in (a,) if u is None else (a, u):
                m[i] = [e + f for e, f in zip(m[i], m[i + 1])]
        a = [list(col) for col in zip(*a)]
        u, v = v, u


def smith_normal_form(m: IntMatrix):
    """Smith normal form with unimodular transforms.

    Returns (diag, left, right) with left * m * right diagonal, diag a
    divisor chain with zeros last, and both transforms of determinant +-1.

    >>> diag, left, right = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> diag
    [2, 4]
    >>> left.mul(IntMatrix.from_rows([[2, 4], [6, 8]])).mul(right).entries
    ((2, 0), (0, 4))
    >>> smith_normal_form(IntMatrix.from_rows([[0]]))[0]
    [0]
    """
    if not m.rows:  # _snf reads the width off the first row
        return [], IntMatrix.identity(0), IntMatrix.identity(m.cols)
    diag, left, right_t = _snf([list(row) for row in m.entries], True)
    return (diag, IntMatrix(m.rows, m.rows, tuple(map(tuple, left))),
            IntMatrix(m.cols, m.cols, tuple(zip(*right_t))))


def snf_diagonal(m: IntMatrix) -> List[int]:
    """Smith diagonal only, skipping transform bookkeeping."""
    return _snf([list(row) for row in m.entries], False)[0]


@dataclass(frozen=True)
class FgAbelian:
    """Finitely generated abelian group in invariant-factor form."""

    rank: int
    torsion: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise InvalidInputError("rank must be non-negative")
        object.__setattr__(self, "torsion", tuple(int(t) for t in self.torsion))
        for t in self.torsion:
            if t < 2:
                raise InvalidInputError("torsion entries must be >= 2")
        for u, v in zip(self.torsion, self.torsion[1:]):
            if v % u != 0:
                raise InvalidInputError("torsion entries must form a divisor chain")

    @property
    def n_coords(self) -> int:
        return self.rank + len(self.torsion)

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_abelian(self) -> bool:
        return True

    @property
    def order(self) -> int:
        return INFINITY if self.rank else math.prod(self.torsion)

    def zero(self) -> Tuple[int, ...]:
        return (0,) * self.n_coords

    def reduce(self, coords: Sequence[int]) -> Tuple[int, ...]:
        if len(coords) != self.n_coords:
            raise InvalidInputError("coordinate length does not match group")
        rank = self.rank
        return (tuple(map(int, coords[:rank]))
                + tuple(map(operator.mod, map(int, coords[rank:]), self.torsion)))

    def add(self, a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
        return self.reduce(tuple(x + y for x, y in zip(a, b, strict=True)))

    def describe(self) -> str:
        """ASCII name, e.g. "Z^2 x Z/2 x Z/4"; the trivial group is "1"."""
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " x ".join(parts) if parts else "1"


TRIVIAL = FgAbelian(0, ())


def _presentation_rows(ambient_rank: int, ambient_torsion: Sequence[int],
                       relations: IntMatrix) -> List[List[int]]:
    n = ambient_rank + len(ambient_torsion)
    if relations.rows > 0 and relations.cols != n:
        raise InvalidInputError(
            f"relation matrix has {relations.cols} columns, ambient has {n} generators")
    rows = []
    for row in relations.entries:
        fixed = list(row[:ambient_rank])
        fixed.extend(c % t for c, t in zip(row[ambient_rank:], ambient_torsion))
        rows.append(fixed)
    for i, t in enumerate(ambient_torsion):
        rel = [0] * n
        rel[ambient_rank + i] = t
        rows.append(rel)
    return rows


def cokernel(ambient_rank: int, ambient_torsion: Sequence[int],
             relations: IntMatrix) -> FgAbelian:
    """Quotient of Z^rank + sum Z/ti by the subgroup spanned by relation rows.

    >>> cokernel(2, [], IntMatrix.from_rows([[2, 0]], cols=2))
    FgAbelian(rank=1, torsion=(2,))
    >>> cokernel(1, [], IntMatrix(0, 1, ()))
    FgAbelian(rank=1, torsion=())
    >>> cokernel(2, [], IntMatrix.from_rows([[1, 0], [0, 1]]))
    FgAbelian(rank=0, torsion=())
    """
    n = ambient_rank + len(ambient_torsion)
    rows = _presentation_rows(ambient_rank, ambient_torsion, relations)
    if not rows:
        return FgAbelian(n, ())
    diag = snf_diagonal(IntMatrix.from_rows(rows, cols=n))
    nonzero = [d for d in diag if d != 0]
    return FgAbelian(n - len(nonzero), tuple(d for d in nonzero if d >= 2))


def subgroup_index(ambient: FgAbelian, generators: IntMatrix) -> int:
    """Index of the subgroup spanned by generator rows; INFINITY on rank deficit.

    >>> subgroup_index(FgAbelian(1), IntMatrix.from_rows([[2]]))
    2
    >>> subgroup_index(FgAbelian(0, (2,)), IntMatrix.from_rows([[1]]))
    1
    >>> subgroup_index(FgAbelian(2), IntMatrix.from_rows([[1, 0]]))
    0
    """
    return cokernel(ambient.rank, ambient.torsion, generators).order


def kernel_lattice(m: IntMatrix) -> List[Tuple[int, ...]]:
    """Basis rows of {x in Z^rows : x * m = 0}.

    One Hermite pass: with u m = h in echelon form and u unimodular, x m = 0
    iff (x u^-1) h = 0, and the nonzero rows of h are independent and come
    first, so the rows of u against the zero rows of h are a basis.
    """
    if not m.rows or not m.cols:  # _echelon reads the width off the first row
        return list(IntMatrix.identity(m.rows).entries)
    a, u = [list(row) for row in m.entries], _eye(m.rows)
    _echelon(a, u)
    nonzero = sum(1 for row in a if any(row))
    return [tuple(row) for row in u[nonzero:]]


def subgroup_structure(ambient: FgAbelian, generators: IntMatrix) -> FgAbelian:
    """Abstract isomorphism type of the subgroup spanned by generator rows.

    >>> subgroup_structure(FgAbelian(1), IntMatrix.from_rows([[2]]))
    FgAbelian(rank=1, torsion=())
    >>> subgroup_structure(FgAbelian(0, (2,)), IntMatrix.from_rows([[1]]))
    FgAbelian(rank=0, torsion=(2,))
    """
    # The generators stacked over the torsion relations.
    return span_structure(generators.rows,
                          _presentation_rows(ambient.rank, ambient.torsion, generators))


def span_structure(m: int, rows: Sequence[Sequence[int]]) -> FgAbelian:
    """Isomorphism type of the subgroup spanned by the first m rows in Z^n
    modulo the span of the rest, n the common width.

    The subgroup is the image of Z^m -> Z^n / (the rest); its type is Z^m
    modulo the kernel of that map, the x with x G in the span of the rest,
    G the first m rows.  That kernel is the left kernel of all the rows,
    cut to its first m coordinates.

    >>> span_structure(1, [[1, 0], [0, 2]])
    FgAbelian(rank=1, torsion=())
    >>> span_structure(1, [[1, 1], [2, 0], [0, 2]])
    FgAbelian(rank=0, torsion=(2,))
    """
    if m == 0:
        return TRIVIAL
    basis = kernel_lattice(IntMatrix.from_rows(rows))
    return cokernel(m, [], IntMatrix.from_rows([row[:m] for row in basis], cols=m))


def solve_integer(m: IntMatrix, target: Sequence[int]):
    """One integer solution x of m * x = target, or None.

    m acts on column vectors; target length must equal m.rows.
    """
    if len(target) != m.rows:
        raise InvalidInputError("target length does not match matrix rows")
    return solve_factored(smith_normal_form(m), target)


def solve_factored(snf, target: Sequence[int]):
    """solve_integer against (diag, left, right) = smith_normal_form(m):
    one back-substitution, so that one factorization serves every target.

    With left m right = D, m x = target iff D y = left target for
    y = right^-1 x.
    """
    diag, left, right = snf
    c = left.apply(tuple(target))
    y = [0] * right.rows
    for i, ci in enumerate(c):
        d = diag[i] if i < len(diag) else 0
        if ci % d if d else ci:
            return None
        if d:
            y[i] = ci // d
    return right.apply(tuple(y))

