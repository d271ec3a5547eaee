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
        tup = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            cols = len(tup[0]) if tup else 0
        return cls(len(tup), cols, tup)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise InvalidInputError("matrix product dimension mismatch")
        out = []
        for i in range(self.rows):
            row = self.entries[i]
            out.append(tuple(
                sum(row[k] * other.entries[k][j] for k in range(self.cols))
                for j in range(other.cols)
            ))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vector: Sequence[int]) -> Tuple[int, ...]:
        """Matrix times column vector."""
        if len(vector) != self.cols:
            raise InvalidInputError("vector length does not match matrix columns")
        return tuple(sum(row[j] * vector[j] for j in range(self.cols)) for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(tuple(self.entries[i][j] for i in range(self.rows))
                               for j in range(self.cols)))

    def row(self, i: int) -> Tuple[int, ...]:
        return self.entries[i]


def diagonal_matrix(rows: int, cols: int, diag: Sequence[int]) -> IntMatrix:
    return IntMatrix(rows, cols, tuple(
        tuple(diag[i] if i == j and i < len(diag) else 0 for j in range(cols))
        for i in range(rows)))


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


def _snf_inplace(a: List[List[int]], want_transforms: bool):
    """Reduce a to Smith form; return (diag, left, right) with lists.

    left and right are accumulated as row-lists; they are None unless
    transforms were requested.  Standard gcd row/column reduction with the
    divisibility fix-up so the diagonal forms a divisor chain.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    left = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)] if want_transforms else None
    right = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)] if want_transforms else None

    def row_op(dst, src, q):
        ad, asrc = a[dst], a[src]
        for j in range(cols):
            ad[j] -= q * asrc[j]
        if left is not None:
            ld, lsrc = left[dst], left[src]
            for j in range(rows):
                ld[j] -= q * lsrc[j]

    def col_op(dst, src, q):
        for i in range(rows):
            a[i][dst] -= q * a[i][src]
        if right is not None:
            for i in range(cols):
                right[i][dst] -= q * right[i][src]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        if left is not None:
            left[i], left[j] = left[j], left[i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        if right is not None:
            for r in range(cols):
                right[r][i], right[r][j] = right[r][j], right[r][i]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # Pick the nonzero entry of smallest magnitude as pivot.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                v = a[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])

        while True:
            dirty = False
            for i in range(rows):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    row_op(i, t, q)
                    if a[i][t] != 0:
                        swap_rows(i, t)
                    dirty = True
            for j in range(cols):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_op(j, t, q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                    dirty = True
            if dirty:
                continue
            # Pivot must divide the rest of the submatrix, or the chain breaks.
            offender = None
            p = a[t][t]
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if a[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # add offending row onto the pivot row
        if a[t][t] < 0:
            for j in range(cols):
                a[t][j] = -a[t][j]
            if left is not None:
                for j in range(rows):
                    left[t][j] = -left[t][j]
        t += 1

    diag = [a[k][k] for k in range(limit)]
    return diag, left, right


def smith_normal_form(m: IntMatrix):
    """Smith normal form with unimodular transforms.

    Returns (diag, left, right) with left * m * right diagonal, diag a
    divisor chain with zeros last, and both transforms of determinant +-1.

    >>> diag, left, right = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> diag
    [2, 4]
    >>> left.mul(IntMatrix.from_rows([[2, 4], [6, 8]])).mul(right) == diagonal_matrix(2, 2, diag)
    True
    >>> smith_normal_form(IntMatrix.from_rows([[0]]))[0]
    [0]
    """
    a = [list(row) for row in m.entries]
    diag, left, right = _snf_inplace(a, want_transforms=True)
    return (diag,
            IntMatrix.from_rows(left, cols=m.rows),
            IntMatrix.from_rows(right, cols=m.cols))


def snf_diagonal(m: IntMatrix) -> List[int]:
    """Smith diagonal only, skipping transform bookkeeping."""
    a = [list(row) for row in m.entries]
    diag, _, _ = _snf_inplace(a, want_transforms=False)
    return diag


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

    def neg(self, a: Sequence[int]) -> Tuple[int, ...]:
        return self.reduce(tuple(-x for x in a))

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


def canonical_form(rank: int, torsion: Sequence[int]) -> FgAbelian:
    """Invariant-factor form of Z^rank + Z/t1 + ... + Z/tk.

    >>> canonical_form(0, [4, 2])
    FgAbelian(rank=0, torsion=(2, 4))
    >>> canonical_form(0, [2, 3])
    FgAbelian(rank=0, torsion=(6,))
    >>> canonical_form(3, [])
    FgAbelian(rank=3, torsion=())
    """
    if rank < 0:
        raise InvalidInputError("rank must be non-negative")
    for t in torsion:
        if t < 2:
            raise InvalidInputError("torsion entries must be >= 2")
    if not torsion:
        return FgAbelian(rank, ())
    diag = snf_diagonal(diagonal_matrix(len(torsion), len(torsion), list(torsion)))
    return FgAbelian(rank, tuple(d for d in diag if d >= 2))


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
    >>> cokernel(1, [], IntMatrix.zeros(0, 1))
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
    """Basis rows of {x in Z^rows : x * m = 0}."""
    diag, left, _ = smith_normal_form(m)
    nonzero = sum(1 for d in diag if d != 0)
    return [left.row(i) for i in range(nonzero, m.rows)]


def subgroup_structure(ambient: FgAbelian, generators: IntMatrix) -> FgAbelian:
    """Abstract isomorphism type of the subgroup spanned by generator rows.

    The subgroup is the image of Z^m -> ambient; its type is Z^m modulo the
    kernel of that map, and the kernel drops out of an SNF left transform.

    >>> subgroup_structure(FgAbelian(1), IntMatrix.from_rows([[2]]))
    FgAbelian(rank=1, torsion=())
    >>> subgroup_structure(FgAbelian(0, (2,)), IntMatrix.from_rows([[1]]))
    FgAbelian(rank=0, torsion=(2,))
    """
    m = generators.rows
    if m == 0:
        return TRIVIAL
    # Stack the generators over the torsion relations so that x*M = 0
    # captures the relations among the generators in the ambient.
    rows = _presentation_rows(ambient.rank, ambient.torsion, generators)
    basis = kernel_lattice(IntMatrix.from_rows(rows, cols=ambient.n_coords))
    projected = [row[:m] for row in basis]
    return cokernel(m, [], IntMatrix.from_rows(projected, cols=m))


def solve_integer(m: IntMatrix, target: Sequence[int]):
    """One integer solution x of m * x = target, or None.

    m acts on column vectors; target length must equal m.rows.
    """
    if len(target) != m.rows:
        raise InvalidInputError("target length does not match matrix rows")
    diag, left, right = smith_normal_form(m)
    c = left.apply(tuple(target))
    y = [0] * m.cols
    for i in range(m.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            if i < m.cols:
                y[i] = c[i] // d
    return right.apply(tuple(y))


def prime_factors(n: int) -> List[int]:
    """Distinct prime divisors by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def prime_exponent(value: int, p: int) -> int:
    """k with value = p^k; rejects non-powers of p."""
    k = 0
    while value > 1:
        if value % p:
            raise InvalidInputError(f"{value} is not a power of {p}")
        value //= p
        k += 1
    return k
