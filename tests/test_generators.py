"""Checks on a generating set reject exactly what the full sweeps reject.

The table associativity check, the cocycle condition and the action
check each run over a generating set of the base, not over every
element.  Each test here writes the full sweep out as a brute-force
oracle and builds seeded random inputs, some valid and some not: the
constructor must raise InvalidInputError exactly when the oracle finds a
failure, and with the message of the first check that fails.  The
questions read off the generators (is_abelian, the center, normality)
are graded against full scans the same way.
"""

import random

import pytest

from test_fingroup import commutator_quotient_structure

from thg import tower
from thg.abelian import FgAbelian, IntMatrix
from thg.errors import InvalidInputError
from thg.fingroup import (CayleyGroup, _generating_sequence, center,
                          from_catalog, is_normal, subgroup_generated)
from thg.tower import LayerAut, make_virtabelian

NOT_ASSOCIATIVE = "multiplication table is not associative"
NO_INVERSE = "element lacks a two-sided inverse"
COCYCLE_FAILS = "cocycle condition fails; product not associative"
IDENTITY_ACTS = "identity base element must act trivially"
NOT_HOMOMORPHISM = "action is not a homomorphism"

BASES = ("Z2", "Z(4)", "Z2xZ2", "Q8", "D4")


def _expect(build, message):
    """build() succeeds when message is None, else raises it exactly."""
    if message is None:
        build()
        return
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Oracles: the full sweeps


def _table_oracle(t, e):
    """The message of the first failing check after the Latin-square and
    identity checks, which every input here passes."""
    n = len(t)
    if any(not any(t[i][j] == e and t[j][i] == e for j in range(n))
           for i in range(n)):
        return NO_INVERSE
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    return NOT_ASSOCIATIVE
    return None


def _cocycle_oracle(base, signs, cocycle, k):
    """Every triple of the cocycle condition on the layer Z/k, where the
    base element q acts by the sign signs[q]."""
    n, t = base.order, base.table
    for q in range(n):
        for r in range(n):
            for s in range(n):
                lhs = signs[q] * cocycle[r][s] + cocycle[q][t[r][s]]
                rhs = cocycle[q][r] + cocycle[t[q][r]][s]
                if (lhs - rhs) % k:
                    return COCYCLE_FAILS
    return None


def _action_oracle(base, action):
    """The identity acts trivially and every pair (q, r) composes."""
    if not action[base.identity_index].is_identity():
        return IDENTITY_ACTS
    for q in range(base.order):
        for r in range(base.order):
            if action[q].compose(action[r]) != action[base.table[q][r]]:
                return NOT_HOMOMORPHISM
    return None


# ---------------------------------------------------------------------------
# Inputs


def _relabel(table, e, rng):
    """The same table under a random renaming of its elements."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(map(tuple, out)), perm[e]


def _group(table, e):
    n = len(table)
    return CayleyGroup(n, tuple(f"g{i}" for i in range(n)), table, e)


def _unchecked(table, e):
    """A CayleyGroup that skipped validation.  The greedy generating
    sequence reads only the table, so it can be taken from one."""
    g = object.__new__(CayleyGroup)
    for field, value in (("order", len(table)),
                         ("element_names", tuple(f"g{i}" for i in range(len(table)))),
                         ("table", table), ("identity_index", e)):
        object.__setattr__(g, field, value)
    return g


def _associative_at(table, b):
    n = len(table)
    return all(table[table[a][b]][c] == table[a][table[b][c]]
               for a in range(n) for c in range(n))


def _random_reduced_latin_square(n, rng):
    """A Latin square with first row and column 0, 1, ..., n-1, filled
    cell by cell with random backtracking."""
    t = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(t[i][:j]) | {t[x][j] for x in range(i)}
        candidates = [v for v in range(n) if v not in used]
        rng.shuffle(candidates)
        for v in candidates:
            t[i][j] = v
            if fill(k + 1):
                return True
        t[i][j] = None
        return False

    assert fill(0)
    return t


def _random_base(name, rng):
    g = from_catalog(name)
    return _group(*_relabel(g.table, g.identity_index, rng))


def _characters(base):
    """Every homomorphism from base to {1, -1}, as a tuple of signs."""
    others = [q for q in range(base.order) if q != base.identity_index]
    out = []
    for mask in range(2 ** len(others)):
        signs = [1] * base.order
        for bit, q in enumerate(others):
            if mask >> bit & 1:
                signs[q] = -1
        if all(signs[base.table[q][r]] == signs[q] * signs[r]
               for q in range(base.order) for r in range(base.order)):
            out.append(tuple(signs))
    return out


# ---------------------------------------------------------------------------
# Tests


def test_random_loops_are_rejected_as_by_the_full_associativity_sweep():
    rng = random.Random(20261018)
    verdicts = {None: 0, NO_INVERSE: 0, NOT_ASSOCIATIVE: 0}
    for _ in range(1500):
        n = rng.randint(4, 8)
        table, e = _relabel(_random_reduced_latin_square(n, rng), 0, rng)
        message = _table_oracle(table, e)
        verdicts[message] += 1
        _expect(lambda: _group(table, e), message)
    assert verdicts[NOT_ASSOCIATIVE] >= 100
    assert verdicts[None] >= 20


def test_a_loop_whose_first_failing_triple_has_a_non_generator_middle():
    # An order-6 loop that element 2 generates alone.  The full sweep,
    # in the order a, b, c, first fails at (1, 1, 2): its middle element
    # 1 is not in the generating set, and the loop is still rejected.
    table = ((0, 1, 2, 3, 4, 5),
             (1, 0, 3, 4, 5, 2),
             (2, 5, 4, 0, 3, 1),
             (3, 2, 0, 5, 1, 4),
             (4, 3, 5, 1, 2, 0),
             (5, 4, 1, 2, 0, 3))
    first = next((a, b, c) for a in range(6) for b in range(6) for c in range(6)
                 if table[table[a][b]][c] != table[a][table[b][c]])
    assert first == (1, 1, 2)
    assert _generating_sequence(_unchecked(table, 0)) == [2]
    assert _table_oracle(table, 0) == NOT_ASSOCIATIVE
    _expect(lambda: _group(table, 0), NOT_ASSOCIATIVE)


def test_a_loop_associative_at_its_first_generator_only():
    # Generated by 1 and 2; every triple with middle 1 associates, so
    # only the second generator exposes it.
    table = ((0, 1, 2, 3, 4, 5),
             (1, 5, 3, 4, 2, 0),
             (2, 4, 0, 1, 5, 3),
             (3, 2, 5, 0, 1, 4),
             (4, 3, 1, 5, 0, 2),
             (5, 0, 4, 2, 3, 1))
    assert _generating_sequence(_unchecked(table, 0)) == [1, 2]
    assert _associative_at(table, 1) and not _associative_at(table, 2)
    assert _table_oracle(table, 0) == NOT_ASSOCIATIVE
    _expect(lambda: _group(table, 0), NOT_ASSOCIATIVE)


def test_a_cocycle_failing_only_with_the_second_generator_in_the_middle():
    klein = from_catalog("Z2xZ2")
    a, b, ab = (klein.index_of(x) for x in ("a", "b", "ab"))
    assert _generating_sequence(klein) == [a, b]
    cocycle = [[0] * 4 for _ in range(4)]
    for q, r in ((a, b), (a, ab), (b, a), (ab, a)):
        cocycle[q][r] = 1
    t = klein.table

    def holds_at(r):
        return all((cocycle[r][s] + cocycle[q][t[r][s]] - cocycle[q][r]
                    - cocycle[t[q][r]][s]) % 2 == 0
                   for q in range(4) for s in range(4))

    assert holds_at(a) and not holds_at(b)
    assert _cocycle_oracle(klein, (1,) * 4, cocycle, 2) == COCYCLE_FAILS
    entries = {(q, r): (cocycle[q][r],) for q in range(4) for r in range(4)}
    _expect(lambda: make_virtabelian(klein, FgAbelian(0, (2,)), {}, entries),
            COCYCLE_FAILS)


def test_an_action_composing_with_the_first_generator_only():
    # a swaps the two coordinates of Z^2 and b negates the first; ab acts
    # as b after a, so every pair (q, a) composes, but (a, b) does not.
    klein = from_catalog("Z2xZ2")
    a, b, ab = (klein.index_of(x) for x in ("a", "b", "ab"))
    assert _generating_sequence(klein) == [a, b]
    layer = FgAbelian(2)
    swap = LayerAut(layer, IntMatrix.from_rows([[0, 1], [1, 0]]), ())
    negate = LayerAut(layer, IntMatrix.from_rows([[-1, 0], [0, 1]]), ())
    action = [tower.identity_aut(layer)] * 4
    action[a], action[b], action[ab] = swap, negate, negate.compose(swap)
    assert all(action[q].compose(action[a]) == action[klein.table[q][a]]
               for q in range(4))
    assert _action_oracle(klein, action) == NOT_HOMOMORPHISM
    _expect(lambda: make_virtabelian(klein, layer, dict(enumerate(action))),
            NOT_HOMOMORPHISM)


def test_abelianization_agrees_with_the_tabulated_commutator_quotient():
    # On a finite layer the extension can be tabulated, and a scan of its
    # commutators is an oracle that writes no presentation at all.
    rng = random.Random(64)
    for _ in range(20):
        base = _random_base(rng.choice(("Z2xZ2", "Q8", "D4")), rng)
        n, e, t = base.order, base.identity_index, base.table
        k = rng.randint(2, 4)
        layer = FgAbelian(0, (k,))
        signs = rng.choice(_characters(base))
        f = [0 if q == e else rng.randrange(k) for q in range(n)]
        entries = {(q, r): ((f[q] + signs[q] * f[r] - f[t[q][r]]) % k,)
                   for q in range(n) for r in range(n)}
        action = {q: LayerAut(layer, IntMatrix.identity(0), (signs[q],))
                  for q in range(n)}
        g = make_virtabelian(base, layer, action, entries)
        cay = tower.to_cayley(g)
        assert tower.abelianization(g) == commutator_quotient_structure(
            cay.table, cay.identity_index)


def test_perturbed_coboundaries_are_rejected_as_by_the_full_cocycle_sweep():
    rng = random.Random(71)
    rejected = accepted = 0
    for _ in range(200):
        base = _random_base(rng.choice(BASES), rng)
        n, e, t = base.order, base.identity_index, base.table
        k = rng.randint(2, 6)
        layer = FgAbelian(0, (k,))
        signs = rng.choice(_characters(base))
        # c = df for f with f(e) = 0: a normalised coboundary.
        f = [0 if q == e else rng.randrange(k) for q in range(n)]
        cocycle = [[(f[q] + signs[q] * f[r] - f[t[q][r]]) % k for r in range(n)]
                   for q in range(n)]
        others = [x for x in range(n) if x != e]
        for _ in range(rng.randint(0, 2)):
            q, r = rng.choice(others), rng.choice(others)
            cocycle[q][r] = (cocycle[q][r] + rng.randrange(1, k)) % k
        message = _cocycle_oracle(base, signs, cocycle, k)
        if message is None:
            accepted += 1
        else:
            rejected += 1
        action = {q: LayerAut(layer, IntMatrix.identity(0), (signs[q],))
                  for q in range(n)}
        entries = {(q, r): (cocycle[q][r],) for q in range(n) for r in range(n)}
        _expect(lambda: make_virtabelian(base, layer, action, entries), message)
    assert rejected >= 50 and accepted >= 50


def test_random_sign_actions_are_rejected_as_by_the_full_action_sweep():
    rng = random.Random(1500)
    layer = FgAbelian(1, (3,))
    verdicts = {None: 0, IDENTITY_ACTS: 0, NOT_HOMOMORPHISM: 0}
    for _ in range(300):
        base = _random_base(rng.choice(BASES), rng)
        n = base.order
        if rng.random() < 0.5:
            chars = _characters(base)
            free, tors = rng.choice(chars), rng.choice(chars)
            signs = [[free[q], tors[q]] for q in range(n)]
            if rng.random() < 0.5:
                signs[rng.randrange(n)][rng.randrange(2)] *= -1
        else:
            signs = [[rng.choice((1, -1)), rng.choice((1, -1))] for _ in range(n)]
        action = tuple(LayerAut(layer, IntMatrix.from_rows([[a]]), (b,))
                       for a, b in signs)
        message = _action_oracle(base, action)
        verdicts[message] += 1
        _expect(lambda: make_virtabelian(base, layer, dict(enumerate(action))),
                message)
    assert min(verdicts.values()) >= 20


# The catalog's named groups, cyclic groups, and products of them up to
# the table cap; the ones of order 8 to 64 are also relabelled.
CATALOG_NAMES = (("trivial", "Z2", "Z2xZ2", "Q8", "D4")
                 + tuple(f"Z({k})" for k in range(1, 13))
                 + ("Z2xZ2xZ2", "Q8xZ2", "D4xZ2", "Z(3)xQ8", "D4xZ(3)", "Q8xZ(4)",
                    "D4xZ(4)", "Q8xZ2xZ2", "Q8xZ(4)xZ2", "D4xZ(4)xZ2", "Q8xQ8",
                    "D4xD4", "Q8xD4", "Z(4)xZ(4)xZ(4)"))


def _scan_is_abelian(g):
    t, n = g.table, g.order
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


def _scan_center(g):
    t, n = g.table, g.order
    return tuple(z for z in range(n) if all(t[z][x] == t[x][z] for x in range(n)))


def _scan_is_normal(g, members):
    """x h x^-1 in the subgroup for every x in g and h in it."""
    t, n, e = g.table, g.order, g.identity_index
    inverse = [row.index(e) for row in t]
    inside = set(members)
    return all(t[t[x][h]][inverse[x]] in inside for x in range(n) for h in inside)


def test_generator_reads_agree_with_full_scans():
    rng = random.Random(4575)
    groups = []
    for name in CATALOG_NAMES:
        g = from_catalog(name)
        groups.append(g)
        if 8 <= g.order <= 64:
            groups += [_group(*_relabel(g.table, g.identity_index, rng)) for _ in range(2)]
    abelian = normal = 0
    for g in groups:
        assert g.is_abelian() == _scan_is_abelian(g), g.element_names
        assert center(g).element_indices == _scan_center(g), g.element_names
        abelian += g.is_abelian()
        seeds = [[x] for x in rng.sample(range(g.order), min(g.order, 6))]
        seeds.append(rng.sample(range(g.order), min(g.order, 2)))
        for sub in [center(g)] + [subgroup_generated(g, xs) for xs in seeds]:
            assert is_normal(g, sub) == _scan_is_normal(g, sub.element_indices), \
                (g.element_names, sub.element_indices)
            normal += is_normal(g, sub)
    checked = len(groups) * 8
    assert 20 <= abelian <= len(groups) - 20 and 50 <= normal <= checked - 50, (
        abelian, normal, len(groups))
