"""The table-speed kernels against element-by-element oracles.

to_cayley fills its product table from index tables over the layer's
points; the cocycle condition is checked column by column; the
abelianization is read on a spanning tree of the base with one lift
symbol per generator; find_isomorphism builds each depth's spanning tree
once and draws images from signature classes; and a signed-permutation
free block is accepted as unimodular without a determinant.  Each test
writes the slow, obvious computation out and requires the same answer on
seeded inputs.
"""

import collections
import itertools
import random
import time

import pytest

from test_center import sign_characters
from test_tower import elements, one, product

from thg import tower
from thg.abelian import FgAbelian, IntMatrix, cokernel
from thg.errors import InvalidInputError
from thg.fingroup import CayleyGroup, find_isomorphism, from_catalog
from thg.tower import LayerAut, VirtAbelian, identity_aut, make_virtabelian, to_cayley

COCYCLE_FAILS = "cocycle condition fails; product not associative"
WRONG_COUNT = "cocycle value has wrong coordinate count"
NOT_REDUCED = "cocycle values must be reduced coordinates"
NOT_NORMALISED = "cocycle must vanish against the identity"

# Free, torsion and mixed layers.
LAYERS = [FgAbelian(1), FgAbelian(2), FgAbelian(0, (4,)), FgAbelian(0, (2, 6)),
          FgAbelian(1, (2,)), FgAbelian(1, (3,))]
BASE_NAMES = ["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"]


# ---------------------------------------------------------------------------
# to_cayley


def twisted_extension(name, torsion, seed):
    """A finite extension with a sign action and, where one exists, a
    nonzero cocycle.

    Each torsion coordinate is flipped by its own sign character.  The
    cocycle is a carry cocycle pulled back along a nontrivial character
    chi, c(q, r) = v when chi(q) = chi(r) = -1, with v a nonzero point
    fixed by the action where there is one, plus the coboundary of a
    random normalised f."""
    rng = random.Random(f"{name}/{torsion}/{seed}")
    base, layer = from_catalog(name), FgAbelian(0, torsion)
    n, chars = base.order, sign_characters(name)
    signs = [rng.choice(chars) for _ in torsion]
    action = [LayerAut(layer, IntMatrix.zeros(0, 0), tuple(ch[q] for ch in signs))
              for q in range(n)]
    points = list(itertools.product(*(range(m) for m in torsion)))
    fixed = [a for a in points if any(a) and all(aut.apply(a) == a for aut in action)]
    v = rng.choice(fixed) if fixed else layer.zero()
    chi = rng.choice([ch for ch in chars if -1 in ch])
    f = [layer.zero() if q == base.identity_index else rng.choice(points) for q in range(n)]
    cocycle = {}
    for q, r in itertools.product(range(n), repeat=2):
        c = v if chi[q] == chi[r] == -1 else layer.zero()
        c = layer.add(layer.add(c, f[q]), action[q].apply(f[r]))
        cocycle[(q, r)] = layer.add(c, layer.neg(f[base.table[q][r]]))
    return make_virtabelian(base, layer, dict(enumerate(action)), cocycle)


def test_to_cayley_is_the_product_entry_by_entry():
    checked = twisted = nonzero = abelian = 0
    for name, torsion, seed in itertools.product(["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"],
                                                 [(3,), (2, 4), (2, 2, 2)], range(2)):
        case = (name, torsion, seed)
        g = twisted_extension(name, torsion, seed)
        rows = elements(g)
        at = {x: i for i, x in enumerate(rows)}
        cay = to_cayley(g)
        assert cay.order == len(rows), case
        assert cay.identity_index == at[one(g)], case
        for i, x in enumerate(rows):
            assert [at[product(g, x, y)] for y in rows] == list(cay.table[i]), (case, x)
        # is_abelian asks the generators only; the table answers for all pairs.
        commutes = all(cay.table[i][j] == cay.table[j][i]
                       for i in range(cay.order) for j in range(i))
        assert g.is_abelian() == commutes, case
        abelian += commutes
        checked += 1
        twisted += any(not aut.is_identity() for aut in g.action)
        nonzero += any(any(c) for row in g.cocycle for c in row)
    # Z/2 acting on Z/3 by -1 has only the zero normalised cocycle, so a
    # few draws may have no nonzero one to find.
    assert checked == 30 and twisted >= 12 and nonzero >= 26, (twisted, nonzero)
    assert 5 <= abelian <= 25, abelian


# ---------------------------------------------------------------------------
# The cocycle condition


def _sweep_accepts(base, layer, action, cocycle):
    """Every triple, both sides reduced: the check before the one-pass form."""
    n, t = base.order, base.table
    for q, r, s in itertools.product(range(n), repeat=3):
        lhs = layer.add(action[q].apply(cocycle[r][s]), cocycle[q][t[r][s]])
        if lhs != layer.add(cocycle[q][r], cocycle[t[q][r]][s]):
            return False
    return True


SWAP = IntMatrix.from_rows([[0, 1], [1, 0]])


def _random_action(base_name, layer, rng):
    """A homomorphism from the base to Aut(layer): each torsion coordinate
    and each free coordinate is flipped by a sign character, or, on a
    rank-2 free part, both free coordinates are swapped by one."""
    chars = sign_characters(base_name)
    n = from_catalog(base_name).order
    if layer.rank == 2 and rng.random() < 0.5:
        swap = rng.choice(chars)
        free = [SWAP if swap[q] == -1 else IntMatrix.identity(2) for q in range(n)]
    else:
        signs = [rng.choice(chars) for _ in range(layer.rank)]
        free = [IntMatrix.from_rows([[ch[q] if i == j else 0 for j, ch in enumerate(signs)]
                                     for i in range(layer.rank)], cols=layer.rank)
                for q in range(n)]
    tors = [rng.choice(chars) for _ in layer.torsion]
    return tuple(LayerAut(layer, free[q], tuple(ch[q] for ch in tors)) for q in range(n))


def _random_point(layer, rng):
    return layer.reduce([rng.randint(-3, 3) for _ in range(layer.rank)]
                        + [rng.randrange(m) for m in layer.torsion])


def _coboundary_cocycle(base, layer, action, rng):
    """c(q, r) = f(q) + q.f(r) - f(qr) for a random normalised f."""
    f = [layer.zero() if q == base.identity_index else _random_point(layer, rng)
         for q in range(base.order)]
    return [[layer.add(layer.add(f[q], action[q].apply(f[r])),
                       layer.neg(f[base.table[q][r]]))
             for r in range(base.order)] for q in range(base.order)]


@pytest.mark.parametrize("layer", LAYERS, ids=lambda g: g.describe())
def test_one_pass_cocycle_check_agrees_with_the_full_reduced_sweep(layer):
    accepted = rejected = twisted = 0
    for base_name, seed in itertools.product(["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"], range(6)):
        rng = random.Random(f"{base_name}/{layer}/{seed}")
        base = from_catalog(base_name)
        action = _random_action(base_name, layer, rng)
        cocycle = _coboundary_cocycle(base, layer, action, rng)
        if seed % 2:
            # Move one value off the identity row and column; the result
            # may or may not still be a cocycle, which the oracle decides.
            q, r = (rng.choice([x for x in range(base.order) if x != base.identity_index])
                    for _ in range(2))
            cocycle[q][r] = layer.add(cocycle[q][r], _random_point(layer, rng))
        cocycle = tuple(tuple(row) for row in cocycle)
        twisted += any(not aut.is_identity() for aut in action)
        if _sweep_accepts(base, layer, action, cocycle):
            VirtAbelian(base, layer, action, cocycle)
            accepted += 1
        else:
            with pytest.raises(InvalidInputError) as info:
                VirtAbelian(base, layer, action, cocycle)
            assert str(info.value) == COCYCLE_FAILS, (base_name, seed)
            rejected += 1
    assert accepted >= 10 and rejected >= 5 and twisted >= 10, (accepted, rejected, twisted)


def _carried_cocycle(base_name, layer, action, rng):
    """A coboundary plus, where a random nonzero point v is fixed by the
    whole action, the carry cocycle v [chi(q) = chi(r) = -1] pulled back
    along a nontrivial sign character chi.  Returns the table and v."""
    base = from_catalog(base_name)
    n = base.order
    chi = rng.choice([ch for ch in sign_characters(base_name) if -1 in ch])
    fixed = [v for v in (_random_point(layer, rng) for _ in range(20))
             if any(v) and all(aut.apply(v) == v for aut in action)]
    v = fixed[0] if fixed else layer.zero()
    cob = _coboundary_cocycle(base, layer, action, rng)
    return [[layer.add(cob[q][r], v if chi[q] == chi[r] == -1 else layer.zero())
             for r in range(n)] for q in range(n)], v


def _first_fault(base, layer, action, cocycle):
    """The message of the first failing check, every value visited in row
    order before the triples, and every one of the |Q|^3 triples swept."""
    n, e = base.order, base.identity_index
    for q in range(n):
        for r in range(n):
            c = cocycle[q][r]
            if len(c) != layer.rank + len(layer.torsion):
                return WRONG_COUNT
            if not all(0 <= x < m for x, m in zip(c[layer.rank:], layer.torsion)):
                return NOT_REDUCED
        if any(cocycle[e][q]) or any(cocycle[q][e]):
            return NOT_NORMALISED
    return None if _sweep_accepts(base, layer, action, cocycle) else COCYCLE_FAILS


@pytest.mark.parametrize("layer", LAYERS, ids=lambda g: g.describe())
def test_one_injected_fault_is_reported_as_by_the_triple_loop(layer):
    # One reduced value off the identity row and column is moved; on odd
    # seeds a value of the wrong length or, on a torsion layer, an
    # unreduced one is also put anywhere in the table.  The constructor
    # must raise exactly the first fault of the full sweep.
    outcomes = collections.Counter()
    moved_actions = 0
    for base_name, moved, seed in itertools.product(BASE_NAMES, (False, True), range(4)):
        rng = random.Random(f"fault/{base_name}/{layer}/{moved}/{seed}")
        base = from_catalog(base_name)
        n, e = base.order, base.identity_index
        action = (_random_action(base_name, layer, rng) if moved
                  else tuple(identity_aut(layer) for _ in range(n)))
        moved_actions += any(not aut.is_identity() for aut in action)
        cocycle, _ = _carried_cocycle(base_name, layer, action, rng)
        q, r = (rng.choice([x for x in range(n) if x != e]) for _ in range(2))
        delta = layer.zero()
        while not any(delta):
            delta = _random_point(layer, rng)
        cocycle[q][r] = layer.add(cocycle[q][r], delta)
        if seed % 2:
            q, r = rng.randrange(n), rng.randrange(n)
            if layer.torsion and rng.random() < 0.5:
                bad = list(cocycle[q][r])
                bad[-1] += layer.torsion[-1]
                cocycle[q][r] = tuple(bad)
            else:
                cocycle[q][r] = cocycle[q][r] + (0,)
        cocycle = tuple(tuple(row) for row in cocycle)
        expected = _first_fault(base, layer, action, cocycle)
        try:
            VirtAbelian(base, layer, action, cocycle)
            got = None
        except InvalidInputError as err:
            got = str(err)
        assert got == expected, (base_name, moved, seed)
        outcomes[expected] += 1
    assert moved_actions >= 10 and outcomes[COCYCLE_FAILS] >= 10, (moved_actions, outcomes)
    assert outcomes[WRONG_COUNT] + outcomes[NOT_REDUCED] >= 10, outcomes


# ---------------------------------------------------------------------------
# The spanning-tree abelianization


def _lift_column_cokernel(g):
    """The abelianization on one lift column per base element, no tree:
    x_e = 0, and for each generator s its action rows and
    x_q + x_s = c(q, s) + x_qs for every q."""
    lay, base = g.layer, g.base
    rank, k, n = lay.rank, len(lay.torsion), base.order
    width = rank + n + k
    row = [0] * width
    row[rank + base.identity_index] = 1
    rows = [row]
    for s in base.generators:
        aut = g.action[s]
        for i in range(rank):
            rows.append([e[i] - (i == j) for j, e in enumerate(aut.free_matrix.entries)]
                        + [0] * (n + k))
        for i in range(k):
            row = [0] * width
            row[rank + n + i] = aut.torsion_signs[i] - 1
            rows.append(row)
        for q in range(n):
            c = g.cocycle[q][s]
            row = [-x for x in c[:rank]] + [0] * n + [-x for x in c[rank:]]
            row[rank + q] += 1
            row[rank + s] += 1
            row[rank + base.table[q][s]] -= 1
            rows.append(row)
    return cokernel(rank + n, lay.torsion, IntMatrix.from_rows(rows, cols=width))


@pytest.mark.parametrize("layer", LAYERS, ids=lambda g: g.describe())
def test_spanning_tree_abelianization_matches_the_lift_column_presentation(layer):
    carried = twisted = 0
    for base_name, seed in itertools.product(BASE_NAMES, range(4)):
        rng = random.Random(f"tree/{base_name}/{layer}/{seed}")
        base = from_catalog(base_name)
        action = _random_action(base_name, layer, rng)
        cocycle, v = _carried_cocycle(base_name, layer, action, rng)
        g = VirtAbelian(base, layer, action, tuple(map(tuple, cocycle)))
        assert tower.abelianization(g) == _lift_column_cokernel(g), (base_name, seed)
        twisted += any(not aut.is_identity() for aut in action)
        carried += any(v)
    if layer.torsion:
        for base_name, seed in itertools.product(BASE_NAMES, range(2)):
            g = twisted_extension(base_name, layer.torsion, seed)
            assert tower.abelianization(g) == _lift_column_cokernel(g), (base_name, seed)
    assert twisted >= 10 and carried >= 5, (twisted, carried)


# ---------------------------------------------------------------------------
# find_isomorphism


def _relabel(g, rng):
    """g with its elements renumbered by a random permutation."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    back = {p: i for i, p in enumerate(perm)}
    table = tuple(tuple(perm[g.table[back[i]][back[j]]] for j in range(g.order))
                  for i in range(g.order))
    names = tuple(g.element_names[back[i]] for i in range(g.order))
    return CayleyGroup(g.order, names, table, perm[g.identity_index])


def _is_isomorphism(a, b, phi):
    """Bijective, and phi(xy) = phi(x)phi(y) for all |G|^2 pairs."""
    if sorted(phi) != list(range(a.order)) or sorted(phi.values()) != list(range(b.order)):
        return False
    return all(phi[a.table[x][y]] == b.table[phi[x]][phi[y]]
               for x in range(a.order) for y in range(a.order))


@pytest.mark.parametrize("name", ["Q8xZ2", "D4xZ2", "Q8xZ(4)", "D4xZ(4)",
                                  "Q8xZ(4)xZ2", "D4xZ(4)xZ2"])
def test_find_isomorphism_on_relabelled_bases(name):
    g = from_catalog(name)
    for seed in range(2):
        rng = random.Random(f"{name}/{seed}")
        a, b = _relabel(g, rng), _relabel(g, rng)
        phi = find_isomorphism(a, b)
        assert phi is not None and _is_isomorphism(a, b, phi), (name, seed)


@pytest.mark.parametrize("left, right", [("Q8xZ2", "D4xZ2"), ("Q8xZ(4)", "D4xZ(4)"),
                                         ("Q8xZ(4)xZ2", "D4xZ(4)xZ2")])
def test_find_isomorphism_refuses_quaternion_against_dihedral(left, right):
    # Called directly: is_isomorphic's invariants would answer first.
    assert find_isomorphism(from_catalog(left), from_catalog(right)) is None
    assert find_isomorphism(from_catalog(right), from_catalog(left)) is None


def _table_invariants(g):
    """Element orders by repeated products and the number of commuting
    pairs, both by a full scan of the table."""
    t, e, n = g.table, g.identity_index, g.order
    orders = collections.Counter()
    for x in range(n):
        y, k = x, 1
        while y != e:
            y, k = t[y][x], k + 1
        orders[k] += 1
    return orders, sum(t[x][y] == t[y][x] for x in range(n) for y in range(n))


def test_find_isomorphism_on_twisted_extensions():
    # Each tabulated extension is matched with a relabelled copy, and
    # with every other one of its order: a map found must be an
    # isomorphism under the full check, and where the table invariants
    # differ none may be found.
    groups = [to_cayley(twisted_extension(name, torsion, seed))
              for name in ("Z(4)", "Z2xZ2", "Q8", "D4")
              for torsion in ((4,), (2, 2)) for seed in range(2)]
    rng = random.Random(17)
    found = refused = 0
    for i, a in enumerate(groups):
        b = _relabel(a, rng)
        phi = find_isomorphism(a, b)
        assert phi is not None and _is_isomorphism(a, b, phi), i
        for j, other in enumerate(groups[i + 1:], i + 1):
            if other.order != a.order:
                continue
            phi = find_isomorphism(a, other)
            if phi is not None:
                assert _is_isomorphism(a, other, phi), (i, j)
                found += 1
            elif _table_invariants(a) != _table_invariants(other):
                refused += 1
    assert found >= 5 and refused >= 10, (found, refused)


# ---------------------------------------------------------------------------
# Unimodularity of the free block


def _no_det(m):
    raise AssertionError("det was called")


def _diagonal(signs):
    n = len(signs)
    return IntMatrix.from_rows([[signs[i] if i == j else 0 for j in range(n)]
                                for i in range(n)], cols=n)


def test_signed_permutations_build_without_det(monkeypatch):
    monkeypatch.setattr(tower, "det", _no_det)
    assert identity_aut(FgAbelian(400)).is_identity()
    flip = LayerAut(FgAbelian(50), _diagonal([-1] * 25 + [1] * 25), ())
    assert not flip.is_identity()
    # A Z2 sign flip at rank 200: its compositions skip the zero entries.
    z2, layer = from_catalog("Z2"), FgAbelian(200)
    flip = LayerAut(layer, _diagonal([-1] * 200), ())
    start = time.perf_counter()
    tower.check_action(z2, [identity_aut(layer) if q == z2.identity_index else flip
                            for q in range(2)])
    assert time.perf_counter() - start < 0.5
    LayerAut(FgAbelian(3, (2,)), IntMatrix.from_rows([[0, -1, 0], [0, 0, 1], [1, 0, 0]]), (-1,))


def test_other_free_blocks_still_go_through_det(monkeypatch):
    LayerAut(FgAbelian(2), IntMatrix.from_rows([[2, 1], [1, 1]]), ())
    for rows in ([[2]], [[0]], [[1, 0], [1, 0]], [[2, 0], [0, 1]]):
        with pytest.raises(InvalidInputError, match="free block must be unimodular"):
            LayerAut(FgAbelian(len(rows)), IntMatrix.from_rows(rows), ())
    monkeypatch.setattr(tower, "det", _no_det)
    with pytest.raises(AssertionError, match="det was called"):
        LayerAut(FgAbelian(2), IntMatrix.from_rows([[2, 1], [1, 1]]), ())
    with pytest.raises(AssertionError, match="det was called"):
        LayerAut(FgAbelian(1), IntMatrix.from_rows([[2]]), ())
