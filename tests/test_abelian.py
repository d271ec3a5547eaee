"""Exact-arithmetic checks for the integer matrix kernel.

The Smith normal form is cross-examined against two independent
computations, both in strategies.py: determinantal divisors (gcds of
k-by-k minors, the classical characterization of the invariant factors)
and a literal coset enumeration of the quotient lattice.  Neither oracle
shares code with the implementation under test; the enumeration reduces
against a row-echelon basis built by plain Euclidean row operations.
Up to 16x16 the oracles are ones that scale: unimodular transforms
(Bareiss det of +-1) that diagonalize, a divisor chain with its zeros
last, and |det| as the product of the diagonal; each of those runs under
an alarm, so a hang fails the test.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (SAMPLE, divisors_by_minors, echelon_basis, enumerate_quotient,
                        minor_det, order_multiset, predicted_order_multiset,
                        rational_rank, reduce_mod, time_limit)

from thg.abelian import (FgAbelian, INFINITY, IntMatrix, canonical_form,
                         cokernel, det, diagonal_matrix,
                         kernel_lattice,
                         smith_normal_form, snf_diagonal, solve_integer,
                         subgroup_index, subgroup_structure)
from thg.errors import InvalidInputError


def seeded_square(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


# Square matrices with entries in [-9, 9], three seeds per size up to
# 16x16.  Among them are 7x7 seeds 0 and 1, 8x8 seed 0, 10x10 seed 0 and
# 16x16 seed 0, on which an elimination that lets its entries grow
# unchecked does not finish.
SQUARES = [seeded_square(n, seed) for n in range(4, 17) for seed in range(3)]


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
        assert det(IntMatrix.from_rows(rows)) == minor_det(rows)
