"""Exact-arithmetic checks for the integer matrix kernel.

The Smith normal form is cross-examined against two independent
computations: determinantal divisors (gcds of k-by-k minors, the
classical characterization of the invariant factors) and a literal
coset enumeration of the quotient lattice.  Neither oracle shares code
with the implementation under test; the enumeration reduces against a
row-echelon basis built by plain Euclidean row operations.  Up to 16x16
the oracles are ones that scale: unimodular transforms (Bareiss det of
+-1) that diagonalize, a divisor chain with its zeros last, and |det| as
the product of the diagonal; each of those runs under an alarm, so a
hang fails the test.
"""

import contextlib
import itertools
import math
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thg.abelian import (FgAbelian, INFINITY, IntMatrix, canonical_form,
                         cokernel, det, diagonal_matrix,
                         kernel_lattice,
                         smith_normal_form, snf_diagonal, solve_integer,
                         subgroup_index, subgroup_structure)
from thg.errors import InvalidInputError


# ---------------------------------------------------------------------------
# Independent oracles


def _minor_det(rows):
    """Cofactor-expansion determinant; fine up to 5x5."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _minor_det(sub)
    return total


def divisors_by_minors(entries):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}.

    D_k is the gcd of all k-by-k minors; the quotient chain is the
    Smith diagonal up to sign.  Zero entries appear once the minors of
    that size all vanish.
    """
    rows = [list(r) for r in entries]
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = math.gcd(d, abs(_minor_det(sub)))
        if d == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(d // prev)
        prev = d
    return out


def rational_rank(entries):
    rows = [[Fraction(x) for x in r] for r in entries]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def echelon_basis(entries, n):
    """Row basis of the integer row span, by Euclidean row reduction.

    Returns rows in echelon form: each has a leading pivot column, the
    pivot is positive, and entries below a pivot are zero.  Entries
    above are merely reduced, which is all the coset reduction needs.
    """
    rows = [list(r) for r in entries if any(r)]
    basis = []
    for col in range(n):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            reduced = [a]
            for r in live[1:]:
                q = r[col] // a[col]
                for j in range(n):
                    r[j] -= q * a[j]
                if r[col] != 0:
                    reduced.append(r)
                elif any(r):
                    rest.append(r)
            live = reduced
        if live:
            a = live[0]
            basis.append([-x for x in a] if a[col] < 0 else a)
        rows = [r for r in rest if any(r)]
    return basis


def reduce_mod(x, basis):
    """Canonical residue of x modulo the echelon row basis."""
    x = list(x)
    for b in basis:
        col = next(j for j, v in enumerate(b) if v)
        q = x[col] // b[col]
        for j in range(len(x)):
            x[j] -= q * b[j]
    return tuple(x)


def enumerate_quotient(entries, n, cap=2000):
    """All cosets of Z^n modulo the row span, by breadth-first search.

    Returns (residues, add) where residues lists every coset once and
    add composes two of them; None when the quotient is infinite.
    """
    if rational_rank(entries) < n:
        return None
    basis = echelon_basis(entries, n)
    assert len(basis) == n
    zero = reduce_mod((0,) * n, basis)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for j in range(n):
                for s in (1, -1):
                    y = list(x)
                    y[j] += s
                    y = reduce_mod(y, basis)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
        assert len(seen) <= cap, "quotient larger than the enumeration cap"

    def add(a, b):
        return reduce_mod([p + q for p, q in zip(a, b)], basis)

    return sorted(seen), add


def order_multiset(residues, add, zero):
    counts = {}
    for x in residues:
        acc, o = x, 1
        while acc != zero:
            acc = add(acc, x)
            o += 1
        counts[o] = counts.get(o, 0) + 1
    return counts


def predicted_order_multiset(group: FgAbelian):
    counts = {}
    for elt in itertools.product(*(range(t) for t in group.torsion)):
        o = 1
        for c, t in zip(elt, group.torsion):
            o = math.lcm(o, t // math.gcd(c, t))
        counts[o] = counts.get(o, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# The fixed sample: every exemplar plus 500 seeded random matrices


EXEMPLARS = [
    [[0]],
    [[5]],
    [[1]],
    [[2, 4], [6, 8]],
    [[2, 0], [0, 0]],
    [[1, 0], [0, 1]],
    [[2, 0], [0, 4]],
    [[0, 0], [0, 0]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0, 0], [0, 2, 0], [0, 0, 6]],
    [[3, 1], [1, 3], [2, 2]],
    [[1, 2, 3], [4, 5, 6]],
]


def sample_matrices():
    rng = random.Random(20260819)
    out = [list(map(list, m)) for m in EXEMPLARS]
    while len(out) < 500 + len(EXEMPLARS):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        out.append([[rng.randint(-4, 4) for _ in range(cols)]
                    for _ in range(rows)])
    return out


SAMPLE = sample_matrices()


def seeded_square(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# Square matrices with entries in [-9, 9], three seeds per size up to
# 16x16.  Among them are 7x7 seeds 0 and 1, 8x8 seed 0, 10x10 seed 0 and
# 16x16 seed 0, on which an elimination that lets its entries grow
# unchecked does not finish.
SQUARES = [seeded_square(n, seed) for n in range(4, 17) for seed in range(3)]


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, rather than hang it, when the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_sample_size():
    assert len(SAMPLE) >= 500


def test_snf_matches_determinantal_divisors():
    for entries in SAMPLE + [m for m in SQUARES if len(m) <= 5]:
        m = IntMatrix.from_rows(entries)
        assert snf_diagonal(m) == divisors_by_minors(entries), entries


def test_snf_transforms_are_unimodular_and_diagonalize():
    for entries in SAMPLE + SQUARES:
        m = IntMatrix.from_rows(entries)
        with time_limit(3):
            diag, left, right = smith_normal_form(m)
            assert snf_diagonal(m) == diag, entries
        assert det(left) in (1, -1) and det(right) in (1, -1), entries
        assert left.mul(m).mul(right) == diagonal_matrix(m.rows, m.cols, diag)
        nonzero = [d for d in diag if d != 0]
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:])), entries
        if 0 in diag:  # zeros close the chain
            assert all(d == 0 for d in diag[diag.index(0):]), entries
        if m.rows == m.cols:  # 0 on both sides when m is singular
            assert abs(det(m)) == math.prod(diag), entries


def test_cokernel_and_index_match_coset_enumeration():
    checked_finite = 0
    checked_infinite = 0
    for entries in SAMPLE:
        n = len(entries[0])
        m = IntMatrix.from_rows(entries)
        quo = cokernel(n, [], m)
        idx = subgroup_index(FgAbelian(n), m)
        enum = enumerate_quotient(entries, n)
        if enum is None:
            assert idx == INFINITY, entries
            assert quo.rank > 0, entries
            checked_infinite += 1
            continue
        residues, add = enum
        assert idx == len(residues), entries
        assert quo.rank == 0, entries
        assert quo.order == len(residues), entries
        if len(residues) <= 120:
            zero = reduce_mod((0,) * n, echelon_basis(entries, n))
            assert (order_multiset(residues, add, zero)
                    == predicted_order_multiset(quo)), entries
        checked_finite += 1
    assert checked_finite + checked_infinite >= 500
    assert checked_finite >= 100 and checked_infinite >= 50


def test_solve_integer_against_membership():
    rng = random.Random(99)
    solved = 0
    for entries in SAMPLE[:200]:
        m = IntMatrix.from_rows(entries)
        y = [rng.randint(-3, 3) for _ in range(m.cols)]
        b = m.apply(tuple(y))
        x = solve_integer(m, b)
        assert x is not None and m.apply(tuple(x)) == b, entries
        solved += 1
        # A target outside the column span must be rejected; columns of
        # m live in the lattice spanned by column reduction, so bump b
        # off it when the quotient is nontrivial.
        quo = cokernel(m.rows, [], m.transpose())
        if quo.order != 1:
            probe = solve_integer(m, tuple(v + 1 for v in b))
            if probe is not None:
                assert m.apply(tuple(probe)) == tuple(v + 1 for v in b)
    assert solved == 200


def fixed_layer_stacks():
    """The shape tower's fixed-lattice computation asks for: A(s) - I for
    each generator s, stacked and transposed, so rank rows and
    rank * |S| columns, A a signed permutation of a rank-1 to rank-3
    free layer.  Only the first few coordinates move, so that the fixed
    lattice is often nonzero."""
    rng = random.Random(4544)
    out = []
    for _ in range(50):
        rank, gens = rng.randint(1, 3), rng.randint(1, 32)
        moving = rng.randint(0, rank)
        stack = []
        for _ in range(gens):
            perm = rng.sample(range(moving), moving) + list(range(moving, rank))
            signs = [rng.choice((1, -1)) if i < moving else 1 for i in range(rank)]
            stack += [[signs[i] * (perm[i] == j) - (i == j) for j in range(rank)]
                      for i in range(rank)]
        out.append([list(col) for col in zip(*stack)])
    return out


def test_kernel_lattice_spans_the_kernel():
    # The basis is a basis of the kernel: it lies in it, has its rank,
    # and is saturated (its maximal minors are coprime), so nothing of
    # the kernel lies outside its span.  Then the empty shapes.
    for entries in SAMPLE[:200] + fixed_layer_stacks():
        m = IntMatrix.from_rows(entries)
        basis = kernel_lattice(m)
        for row in basis:
            image = [sum(row[i] * entries[i][j] for i in range(m.rows))
                     for j in range(m.cols)]
            assert all(v == 0 for v in image), entries
        assert len(basis) == m.rows - rational_rank(entries), entries
        assert all(d == 1 for d in divisors_by_minors(basis)), entries
    assert kernel_lattice(IntMatrix.zeros(0, 0)) == []
    assert kernel_lattice(IntMatrix.zeros(0, 3)) == []
    assert kernel_lattice(IntMatrix.zeros(3, 0)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert solve_integer(IntMatrix.zeros(0, 3), []) == (0, 0, 0)


def test_exemplar_values():
    assert snf_diagonal(IntMatrix.from_rows([[2, 4], [6, 8]])) == [2, 4]
    assert snf_diagonal(IntMatrix.from_rows([[0]])) == [0]
    assert cokernel(2, [], IntMatrix.from_rows([[2, 0]], cols=2)) == FgAbelian(1, (2,))
    assert subgroup_index(FgAbelian(1), IntMatrix.from_rows([[2]])) == 2
    assert subgroup_index(FgAbelian(2), IntMatrix.from_rows([[1, 0]])) == INFINITY
    assert subgroup_structure(FgAbelian(1), IntMatrix.from_rows([[2]])) == FgAbelian(1, ())
    assert subgroup_structure(FgAbelian(0, (2,)), IntMatrix.from_rows([[1]])) == FgAbelian(0, (2,))
    assert cokernel(0, [4, 4], IntMatrix.from_rows([[1, 1]], cols=2)) == FgAbelian(0, (4,))


def test_subgroup_structure_in_torsion_ambient():
    # <(2, 0), (0, 2)> inside Z/4 + Z/4 is the Klein subgroup.
    amb = FgAbelian(0, (4, 4))
    gens = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert subgroup_structure(amb, gens) == FgAbelian(0, (2, 2))
    assert subgroup_index(amb, gens) == 4


# ---------------------------------------------------------------------------
# Canonical-form laws


def test_canonical_form_merges_coprime_torsion():
    assert canonical_form(0, [2, 3]) == FgAbelian(0, (6,))
    assert canonical_form(0, [4, 2]) == FgAbelian(0, (2, 4))
    assert canonical_form(0, [2, 2, 3]) == FgAbelian(0, (2, 6))
    assert canonical_form(1, [12, 18]) == FgAbelian(1, (6, 36))


def test_invalid_inputs_rejected():
    with pytest.raises(InvalidInputError):
        canonical_form(-1, [])
    with pytest.raises(InvalidInputError):
        canonical_form(0, [1])
    with pytest.raises(InvalidInputError):
        FgAbelian(0, (3, 2))  # not a divisor chain


small_groups = st.builds(
    canonical_form,
    st.integers(min_value=0, max_value=3),
    st.lists(st.integers(min_value=2, max_value=12), max_size=3))


@settings(derandomize=True, max_examples=60)
@given(small_groups, small_groups)
def test_direct_product_order_multiplies(a, b):
    p = canonical_form(a.rank + b.rank, a.torsion + b.torsion)
    assert p.order == a.order * b.order
    assert p.rank == a.rank + b.rank
    assert p == canonical_form(b.rank + a.rank, b.torsion + a.torsion)


@settings(derandomize=True, max_examples=60)
@given(small_groups, st.data())
def test_reduce_add_neg_are_group_laws(g, data):
    coords = st.tuples(*(st.integers(-20, 20) for _ in range(g.n_coords)))
    x = data.draw(coords)
    y = data.draw(coords)
    assert g.add(x, g.reduce([-v for v in x])) == g.zero()
    assert g.add(x, y) == g.add(y, x)
    assert g.reduce(g.add(x, y)) == g.add(g.reduce(x), g.reduce(y))


@settings(derandomize=True, max_examples=40)
@given(st.integers(0, 2), st.integers(0, 2),
       st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_power_and_describe_roundtrip(r, k, rows):
    g = canonical_form(r, [])
    assert canonical_form(g.rank * k, g.torsion * k).rank == r * k
    m = IntMatrix.from_rows(rows)
    assert snf_diagonal(m) == divisors_by_minors(rows)


def test_bareiss_determinant_matches_cofactors():
    rng = random.Random(7)
    for _ in range(120):
        k = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(k)]
        assert det(IntMatrix.from_rows(rows)) == _minor_det(rows)
