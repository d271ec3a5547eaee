"""Objects built without re-validation would pass every public check.

The library's own constructions (the catalog builders, direct products,
subgroup_as_group, tower.to_cayley) take their tables as groups through
CayleyGroup._proven, and VirtAbelian proves a zero cocycle under trivial
action without its columnar sweep.  Each test here rebuilds what those
paths made through the public constructor, which checks everything, or
grades the cheaper proofs against the full sweeps of strategies.py on
seeded inputs that the shortcuts decide.
"""

import itertools
import random

import pytest

from strategies import (COCYCLE_FAILS, NOT_HOMOMORPHISM, NOT_REDUCED, WRONG_COUNT,
                        action_oracle, coboundary, cocycle_oracle, expect, random_base,
                        seeded_extension, sign_characters)

from thg.abelian import FgAbelian, IntMatrix
from thg.errors import ThgError
from thg.fingroup import (TABLE_CAP, CayleyGroup, _product, center, from_catalog,
                          subgroup_as_group, subgroup_generated)
from thg.spacecat import TransformationModel, builtin_catalog
from thg.tower import (LayerAut, VirtAbelian, direct_sum_group, identity_aut,
                       make_virtabelian, to_cayley)

NAMED = ("trivial", "Z2", "Z2xZ2", "Q8", "D4")
ATOMS = NAMED + tuple(f"Z({k})" for k in range(1, TABLE_CAP + 1))
SMALL = ("Z2", "Z(3)", "Z(4)", "Z2xZ2", "Q8", "D4")


def _catalog_names():
    """Every atom of the group catalog, every product of two atoms and
    every product of three small ones, within TABLE_CAP."""
    order = {name: from_catalog(name).order for name in ATOMS}
    yield from ATOMS
    for a, b in itertools.product(ATOMS, repeat=2):
        if order[a] * order[b] <= TABLE_CAP:
            yield f"{a}x{b}"
    for a, b, c in itertools.product(SMALL, repeat=3):
        if order[a] * order[b] * order[c] <= TABLE_CAP:
            yield f"{a}x{b}x{c}"


def _assert_checked(g, case):
    """g is what CayleyGroup(...) accepts for its own fields."""
    assert type(g.table) is tuple and all(type(row) is tuple for row in g.table), case
    assert type(g.element_names) is tuple, case
    assert CayleyGroup(g.order, g.element_names, g.table, g.identity_index) == g, case


def _finite_extensions():
    """The finite extensions of the test corpus and of the catalog."""
    for name, torsion, seed in itertools.product(
            ["Z2", "Z(3)", "Z(4)", "Z(6)", "Z2xZ2", "Q8", "D4"],
            [(2,), (3,), (2, 2), (2, 4), (2, 2, 2)], range(2)):
        yield (name, torsion, seed), seeded_extension(name, FgAbelian(0, torsion), seed).group
    for name in SMALL + ("Q8xZ2", "Q8xZ(4)", "D4xZ(4)", "Q8xZ(4)xZ2"):
        for torsion in ((), (2,), (4,), (2, 2)):
            g = direct_sum_group(from_catalog(name), FgAbelian(0, torsion))
            if g.order <= TABLE_CAP:
                yield (name, torsion, "split"), g
    for tg in builtin_catalog():
        if isinstance(tg, TransformationModel):
            try:
                g = tg.sigma1_extension
            except ThgError:
                continue
            if g.order and g.order <= TABLE_CAP:
                yield tg.name, g


def test_catalog_groups_pass_the_public_checks():
    count = 0
    for name in _catalog_names():
        _assert_checked(from_catalog(name), name)
        count += 1
    assert count > 700


def test_direct_products_pass_the_public_checks_entry_by_entry():
    for left, right in itertools.product(SMALL, repeat=2):
        a, b = from_catalog(left), from_catalog(right)
        g = _product(a, b)
        _assert_checked(g, (left, right))
        for (x1, y1), (x2, y2) in itertools.product(
                itertools.product(range(a.order), range(b.order)), repeat=2):
            assert g.table[x1 * b.order + y1][x2 * b.order + y2] == (
                a.table[x1][x2] * b.order + b.table[y1][y2]), (left, right)


def test_to_cayley_tables_pass_the_public_checks():
    count = 0
    for case, g in _finite_extensions():
        cay = to_cayley(g)
        _assert_checked(cay, case)
        count += 1
    assert count > 100


def test_subgroups_as_groups_pass_the_public_checks():
    rng = random.Random(2021)
    groups = [from_catalog(name) for name in SMALL + ("Q8xZ2", "D4xZ(3)", "Q8xD4")]
    groups += [to_cayley(g) for _, g in itertools.islice(_finite_extensions(), 0, None, 7)]
    count = 0
    for g in groups:
        refs = [center(g)] + [subgroup_generated(g, rng.sample(range(g.order), k))
                              for k in (1, 1, 2, 2)]
        for ref in refs:
            _assert_checked(subgroup_as_group(g, ref), ref.names())
            count += 1
    assert count > 50


# ---------------------------------------------------------------------------
# The cheaper proofs


def _trivial_extension(layer, value):
    """Base Z2 acting trivially, with value at (t, t) and zero elsewhere."""
    base = from_catalog("Z2")
    action = tuple(LayerAut(layer, IntMatrix.identity(layer.rank), (1,) * len(layer.torsion))
                   for _ in range(2))
    zero = layer.zero()
    return lambda: VirtAbelian(base, layer, action, ((zero, zero), (zero, value)))


@pytest.mark.parametrize("layer, value, message", [
    (FgAbelian(0, (3,)), (0, 0), WRONG_COUNT),
    (FgAbelian(1), (0, 0), WRONG_COUNT),
    (FgAbelian(1, (2,)), (0,), WRONG_COUNT),
    (FgAbelian(0, (3,)), (3,), NOT_REDUCED),
    (FgAbelian(1, (4,)), (0, -4), NOT_REDUCED),
])
def test_a_zero_cocycle_under_trivial_action_is_still_shape_checked(layer, value, message):
    expect(_trivial_extension(layer, value), message)


def test_trivial_action_cocycles_are_judged_as_by_the_full_sweep():
    """Zero, coboundary and perturbed cocycles under trivial action."""
    rng = random.Random(2121)
    verdicts = {None: 0, COCYCLE_FAILS: 0}
    zero_cocycles = 0
    for _ in range(200):
        base = random_base(rng.choice(SMALL), rng)
        n, e = base.order, base.identity_index
        k = rng.randint(2, 6)
        layer = FgAbelian(0, (k,))
        action = [identity_aut(layer)] * n
        f = [layer.zero() if q == e or rng.random() < 0.5 else (rng.randrange(k),)
             for q in range(n)]
        cocycle = coboundary(base, layer, action, f)
        others = [x for x in range(n) if x != e]
        for _ in range(rng.choice((0, 0, 1, 2))):
            q, r = rng.choice(others), rng.choice(others)
            cocycle[q][r] = layer.add(cocycle[q][r], (rng.randrange(1, k),))
        zero_cocycles += not any(any(c) for row in cocycle for c in row)
        message = cocycle_oracle(base, layer, action, cocycle)
        verdicts[message] += 1
        entries = {(q, r): cocycle[q][r] for q in range(n) for r in range(n)}
        expect(lambda: make_virtabelian(base, layer, {}, entries), message)
    assert min(verdicts.values()) >= 40 and zero_cocycles >= 10


def test_actions_with_trivial_generators_are_judged_as_by_the_full_sweep():
    """Sign actions in which some generators act as the identity: a
    character trivial on them, perhaps with one sign flipped, or random
    signs off those generators."""
    rng = random.Random(2122)
    layer = FgAbelian(1, (3,))
    verdicts = {None: 0, NOT_HOMOMORPHISM: 0}
    for _ in range(300):
        base = random_base(rng.choice(SMALL[1:]), rng)
        n, gens = base.order, base.generators
        still = set(rng.sample(gens, rng.randint(1, len(gens))))
        if rng.random() < 0.5:
            chars = [ch for ch in sign_characters(base) if all(ch[s] == 1 for s in still)]
            free, tors = rng.choice(chars), rng.choice(chars)
            signs = [[free[q], tors[q]] for q in range(n)]
            if rng.random() < 0.5:
                moved = [q for q in range(n) if q not in still and q != base.identity_index]
                signs[rng.choice(moved)][rng.randrange(2)] *= -1
        else:
            signs = [[1, 1] if q in still or q == base.identity_index
                     else [rng.choice((1, -1)), rng.choice((1, -1))] for q in range(n)]
        action = tuple(LayerAut(layer, IntMatrix.from_rows([[a]]), (b,)) for a, b in signs)
        assert all(action[s].is_identity() for s in still)
        message = action_oracle(base, action)
        verdicts[message] += 1
        expect(lambda: make_virtabelian(base, layer, dict(enumerate(action))), message)
    assert min(verdicts.values()) >= 60


def test_an_identity_generator_still_sees_the_other_elements():
    """Both generators of Z2 x Z2 act trivially and their product does
    not: only the identity-generator comparison can catch it."""
    base = from_catalog("Z2xZ2")
    layer = FgAbelian(1)
    ident, flip = IntMatrix.identity(1), IntMatrix.from_rows([[-1]])
    action = {q: LayerAut(layer, flip if q == base.index_of("ab") else ident, ())
              for q in range(4)}
    assert all(action[s].is_identity() for s in base.generators)
    expect(lambda: make_virtabelian(base, layer, action), NOT_HOMOMORPHISM)


def test_is_identity_reads_the_whole_free_block():
    layer = FgAbelian(3, (2, 4))
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert LayerAut(layer, IntMatrix.from_rows(rows), (1, 1)).is_identity()
    assert LayerAut(layer, IntMatrix.from_rows(rows), (-1, 1)).is_identity()  # Z/2 sign
    assert not LayerAut(layer, IntMatrix.from_rows(rows), (1, -1)).is_identity()
    for i, j in itertools.product(range(3), repeat=2):
        other = [row[:] for row in rows]
        other[i][j] = -1 if i == j else 1
        assert not LayerAut(layer, IntMatrix.from_rows(other), (1, 1)).is_identity(), (i, j)
