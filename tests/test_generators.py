"""Checks on a generating set reject exactly what the full sweeps reject.

The table associativity check, the cocycle condition and the action
check each run over a generating set of the base, not over every
element.  Each test grades it against the full sweep, written out as a
brute-force oracle here or in strategies.py, on seeded random inputs,
some valid and some not: the constructor must raise InvalidInputError
exactly when the oracle finds a failure, and with the message of the
first check that fails.  The questions read off the generators
(is_abelian, the center) are graded against full scans the same way, on
seeded subgroups that the normality scan shows to be a mix of normal
and non-normal ones.
"""

import random

from strategies import (COCYCLE_FAILS, IDENTITY_ACTS, NO_INVERSE, NOT_ASSOCIATIVE,
                        NOT_HOMOMORPHISM, action_oracle, coboundary, cochain, cocycle_oracle,
                        commutator_quotient_structure, compose, draw_action, expect, extension,
                        group, random_base, relabel, relabel_table, scan_center,
                        scan_is_abelian, scan_is_normal, sign_characters, unchecked)

from thg import tower
from thg.abelian import FgAbelian, IntMatrix
from thg.fingroup import _generating_sequence, center, from_catalog, subgroup_generated
from thg.tower import LayerAut, identity_aut, make_virtabelian

BASES = ("Z2", "Z(4)", "Z2xZ2", "Q8", "D4")


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


# ---------------------------------------------------------------------------
# Inputs


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


# ---------------------------------------------------------------------------
# Tests


def test_random_loops_are_rejected_as_by_the_full_associativity_sweep():
    rng = random.Random(20261018)
    verdicts = {None: 0, NO_INVERSE: 0, NOT_ASSOCIATIVE: 0}
    for _ in range(1500):
        n = rng.randint(4, 8)
        table, e = relabel_table(_random_reduced_latin_square(n, rng), 0, rng)
        message = _table_oracle(table, e)
        verdicts[message] += 1
        expect(lambda: group(table, e), message)
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
    assert _generating_sequence(unchecked(table, 0)) == [2]
    assert _table_oracle(table, 0) == NOT_ASSOCIATIVE
    expect(lambda: group(table, 0), NOT_ASSOCIATIVE)


def test_a_loop_associative_at_its_first_generator_only():
    # Generated by 1 and 2; every triple with middle 1 associates, so
    # only the second generator exposes it.
    table = ((0, 1, 2, 3, 4, 5),
             (1, 5, 3, 4, 2, 0),
             (2, 4, 0, 1, 5, 3),
             (3, 2, 5, 0, 1, 4),
             (4, 3, 1, 5, 0, 2),
             (5, 0, 4, 2, 3, 1))
    assert _generating_sequence(unchecked(table, 0)) == [1, 2]
    assert _associative_at(table, 1) and not _associative_at(table, 2)
    assert _table_oracle(table, 0) == NOT_ASSOCIATIVE
    expect(lambda: group(table, 0), NOT_ASSOCIATIVE)


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
    layer = FgAbelian(0, (2,))
    assert cocycle_oracle(klein, layer, [identity_aut(layer)] * 4,
                          [[(c,) for c in row] for row in cocycle]) == COCYCLE_FAILS
    entries = {(q, r): (cocycle[q][r],) for q in range(4) for r in range(4)}
    expect(lambda: make_virtabelian(klein, layer, {}, entries), COCYCLE_FAILS)


def test_an_action_composing_with_the_first_generator_only():
    # a swaps the two coordinates of Z^2 and b negates the first; ab acts
    # as b after a, so every pair (q, a) composes, but (a, b) does not.
    klein = from_catalog("Z2xZ2")
    a, b, ab = (klein.index_of(x) for x in ("a", "b", "ab"))
    assert _generating_sequence(klein) == [a, b]
    layer = FgAbelian(2)
    swap = LayerAut(layer, IntMatrix.from_rows([[0, 1], [1, 0]]), ())
    negate = LayerAut(layer, IntMatrix.from_rows([[-1, 0], [0, 1]]), ())
    action = [identity_aut(layer)] * 4
    action[a], action[b], action[ab] = swap, negate, compose(negate, swap)
    assert all(compose(action[q], action[a]) == action[klein.table[q][a]]
               for q in range(4))
    assert action_oracle(klein, action) == NOT_HOMOMORPHISM
    expect(lambda: make_virtabelian(klein, layer, dict(enumerate(action))), NOT_HOMOMORPHISM)


def test_abelianization_agrees_with_the_tabulated_commutator_quotient():
    # On a finite layer the extension can be tabulated, and a scan of its
    # commutators is an oracle that writes no presentation at all.
    rng = random.Random(64)
    for _ in range(20):
        base = random_base(rng.choice(("Z2xZ2", "Q8", "D4")), rng)
        g = extension(rng, base, FgAbelian(0, (rng.randint(2, 4),))).group
        cay = tower.to_cayley(g)
        assert tower.abelianization(g) == commutator_quotient_structure(
            cay.table, cay.identity_index)


def test_perturbed_coboundaries_are_rejected_as_by_the_full_cocycle_sweep():
    rng = random.Random(71)
    rejected = accepted = 0
    for _ in range(200):
        base = random_base(rng.choice(BASES), rng)
        n, e = base.order, base.identity_index
        k = rng.randint(2, 6)
        layer = FgAbelian(0, (k,))
        action = draw_action(rng, base, layer)
        cocycle = coboundary(base, layer, action, cochain(rng, base, layer))
        others = [x for x in range(n) if x != e]
        for _ in range(rng.randint(0, 2)):
            q, r = rng.choice(others), rng.choice(others)
            cocycle[q][r] = layer.add(cocycle[q][r], (rng.randrange(1, k),))
        message = cocycle_oracle(base, layer, action, cocycle)
        if message is None:
            accepted += 1
        else:
            rejected += 1
        entries = {(q, r): cocycle[q][r] for q in range(n) for r in range(n)}
        expect(lambda: make_virtabelian(base, layer, dict(enumerate(action)), entries),
               message)
    assert rejected >= 50 and accepted >= 50


def test_random_sign_actions_are_rejected_as_by_the_full_action_sweep():
    rng = random.Random(1500)
    layer = FgAbelian(1, (3,))
    verdicts = {None: 0, IDENTITY_ACTS: 0, NOT_HOMOMORPHISM: 0}
    for _ in range(300):
        base = random_base(rng.choice(BASES), rng)
        n = base.order
        if rng.random() < 0.5:
            chars = sign_characters(base)
            free, tors = rng.choice(chars), rng.choice(chars)
            signs = [[free[q], tors[q]] for q in range(n)]
            if rng.random() < 0.5:
                signs[rng.randrange(n)][rng.randrange(2)] *= -1
        else:
            signs = [[rng.choice((1, -1)), rng.choice((1, -1))] for _ in range(n)]
        action = tuple(LayerAut(layer, IntMatrix.from_rows([[a]]), (b,))
                       for a, b in signs)
        message = action_oracle(base, action)
        verdicts[message] += 1
        expect(lambda: make_virtabelian(base, layer, dict(enumerate(action))), message)
    assert min(verdicts.values()) >= 20


# The catalog's named groups, cyclic groups, and products of them up to
# the table cap; the ones of order 8 to 64 are also relabelled.
CATALOG_NAMES = (("trivial", "Z2", "Z2xZ2", "Q8", "D4")
                 + tuple(f"Z({k})" for k in range(1, 13))
                 + ("Z2xZ2xZ2", "Q8xZ2", "D4xZ2", "Z(3)xQ8", "D4xZ(3)", "Q8xZ(4)",
                    "D4xZ(4)", "Q8xZ2xZ2", "Q8xZ(4)xZ2", "D4xZ(4)xZ2", "Q8xQ8",
                    "D4xD4", "Q8xD4", "Z(4)xZ(4)xZ(4)"))


def test_generator_reads_agree_with_full_scans():
    rng = random.Random(4575)
    groups = []
    for name in CATALOG_NAMES:
        g = from_catalog(name)
        groups.append(g)
        if 8 <= g.order <= 64:
            groups += [relabel(g, rng) for _ in range(2)]
    abelian = normal = 0
    for g in groups:
        assert g.is_abelian() == scan_is_abelian(g), g.element_names
        assert center(g).element_indices == scan_center(g), g.element_names
        abelian += g.is_abelian()
        seeds = [[x] for x in rng.sample(range(g.order), min(g.order, 6))]
        seeds.append(rng.sample(range(g.order), min(g.order, 2)))
        for sub in [center(g)] + [subgroup_generated(g, xs) for xs in seeds]:
            normal += scan_is_normal(g, sub.element_indices)
    checked = len(groups) * 8
    assert 20 <= abelian <= len(groups) - 20 and 50 <= normal <= checked - 50, (
        abelian, normal, len(groups))
