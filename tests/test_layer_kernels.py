"""The table-speed kernels against element-by-element oracles.

to_cayley fills its product table from index tables over the layer's
points; the cocycle condition is checked column by column; the
abelianization is read on a spanning tree of the base with one lift
symbol per generator; find_isomorphism builds each depth's spanning tree
once, draws images from signature classes, skips images that break a
relation and returns the map of the search without skips or
derived-subgroup flags, and is_isomorphic its answer; and a
signed-permutation free block is accepted as unimodular without a
determinant.  Each test writes the slow, obvious computation out and
requires the same answer on seeded inputs.
"""

import collections
import itertools
import random
import time

import pytest

from strategies import (COCYCLE_FAILS, FINITE_CASES, NOT_NORMALISED, NOT_REDUCED,
                        WRONG_COUNT, coboundary, cochain, cocycle_oracle, commutator_quotient,
                        draw_action, elements, extension, is_isomorphism, one, product,
                        random_point, relabel, scan_is_abelian, seeded_extension)

from thg import tower
from thg.abelian import FgAbelian, IntMatrix, cokernel
from thg.errors import InvalidInputError
from thg.fingroup import CayleyGroup, find_isomorphism, from_catalog, is_isomorphic
from thg.tower import LayerAut, VirtAbelian, identity_aut, to_cayley

# Free, torsion and mixed layers.
LAYERS = [FgAbelian(1), FgAbelian(2), FgAbelian(0, (4,)), FgAbelian(0, (2, 6)),
          FgAbelian(1, (2,)), FgAbelian(1, (3,))]
BASE_NAMES = ["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"]


# ---------------------------------------------------------------------------
# to_cayley


def test_to_cayley_is_the_product_entry_by_entry():
    checked = twisted = nonzero = abelian = 0
    for name, torsion, seed in itertools.product(["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"],
                                                 [(3,), (2, 4), (2, 2, 2)], range(2)):
        case = (name, torsion, seed)
        g = seeded_extension(name, FgAbelian(0, torsion), seed).group
        rows = elements(g)
        at = {x: i for i, x in enumerate(rows)}
        cay = to_cayley(g)
        assert cay.order == len(rows), case
        assert cay.identity_index == at[one(g)], case
        for i, x in enumerate(rows):
            assert [at[product(g, x, y)] for y in rows] == list(cay.table[i]), (case, x)
        # is_abelian asks the generators only; the table answers for all pairs.
        commutes = scan_is_abelian(cay)
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


@pytest.mark.parametrize("layer", LAYERS, ids=lambda g: g.describe())
def test_one_pass_cocycle_check_agrees_with_the_full_reduced_sweep(layer):
    accepted = rejected = twisted = 0
    for base_name, seed in itertools.product(["Z2", "Z(4)", "Z2xZ2", "Q8", "D4"], range(6)):
        rng = random.Random(f"{base_name}/{layer}/{seed}")
        base = from_catalog(base_name)
        action = draw_action(rng, base, layer)
        cocycle = coboundary(base, layer, action, cochain(rng, base, layer))
        if seed % 2:
            # Move one value off the identity row and column; the result
            # may or may not still be a cocycle, which the oracle decides.
            q, r = (rng.choice([x for x in range(base.order) if x != base.identity_index])
                    for _ in range(2))
            cocycle[q][r] = layer.add(cocycle[q][r], random_point(layer, rng))
        cocycle = tuple(tuple(row) for row in cocycle)
        twisted += any(not aut.is_identity() for aut in action)
        if cocycle_oracle(base, layer, action, cocycle) is None:
            VirtAbelian(base, layer, action, cocycle)
            accepted += 1
        else:
            with pytest.raises(InvalidInputError) as info:
                VirtAbelian(base, layer, action, cocycle)
            assert str(info.value) == COCYCLE_FAILS, (base_name, seed)
            rejected += 1
    assert accepted >= 10 and rejected >= 5 and twisted >= 10, (accepted, rejected, twisted)


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
    return cocycle_oracle(base, layer, action, cocycle)


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
        action = (draw_action(rng, base, layer) if moved
                  else tuple(identity_aut(layer) for _ in range(n)))
        moved_actions += any(not aut.is_identity() for aut in action)
        cocycle = [list(row) for row in extension(rng, base, layer, action).group.cocycle]
        q, r = (rng.choice([x for x in range(n) if x != e]) for _ in range(2))
        delta = layer.zero()
        while not any(delta):
            delta = random_point(layer, rng)
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
        g, v, _ = extension(rng, from_catalog(base_name), layer)
        assert tower.abelianization(g) == _lift_column_cokernel(g), (base_name, seed)
        twisted += any(not aut.is_identity() for aut in g.action)
        carried += any(v)
    if layer.torsion:
        for base_name, seed in itertools.product(BASE_NAMES, range(2)):
            g = seeded_extension(base_name, FgAbelian(0, layer.torsion), seed).group
            assert tower.abelianization(g) == _lift_column_cokernel(g), (base_name, seed)
    assert twisted >= 10 and carried >= 5, (twisted, carried)


# ---------------------------------------------------------------------------
# find_isomorphism


@pytest.mark.parametrize("name", ["Q8xZ2", "D4xZ2", "Q8xZ(4)", "D4xZ(4)",
                                  "Q8xZ(4)xZ2", "D4xZ(4)xZ2"])
def test_find_isomorphism_on_relabelled_bases(name):
    g = from_catalog(name)
    for seed in range(2):
        rng = random.Random(f"{name}/{seed}")
        a, b = relabel(g, rng), relabel(g, rng)
        phi = find_isomorphism(a, b)
        assert phi is not None and is_isomorphism(a, b, phi), (name, seed)


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


def _twisted_groups():
    """The tabulated twisted extensions of order 16 and 32."""
    return [to_cayley(seeded_extension(name, FgAbelian(0, torsion), seed).group)
            for name in ("Z(4)", "Z2xZ2", "Q8", "D4")
            for torsion in ((4,), (2, 2)) for seed in range(2)]


def test_find_isomorphism_on_twisted_extensions():
    # Each tabulated extension is matched with a relabelled copy, and
    # with every other one of its order: a map found must be an
    # isomorphism under the full check, and where the table invariants
    # differ none may be found.
    groups = _twisted_groups()
    rng = random.Random(17)
    found = refused = 0
    for i, a in enumerate(groups):
        b = relabel(a, rng)
        phi = find_isomorphism(a, b)
        assert phi is not None and is_isomorphism(a, b, phi), i
        for j, other in enumerate(groups[i + 1:], i + 1):
            if other.order != a.order:
                continue
            phi = find_isomorphism(a, other)
            if phi is not None:
                assert is_isomorphism(a, other, phi), (i, j)
                found += 1
            elif _table_invariants(a) != _table_invariants(other):
                refused += 1
    assert found >= 5 and refused >= 10, (found, refused)


def _coarse_signatures(g):
    """(order, centralizer order, number of square roots) of each element,
    by scans of the table: the signature without the derived-subgroup
    flags."""
    t, e, n = g.table, g.identity_index, g.order
    squares = [t[x][x] for x in range(n)]
    signatures = []
    for x in range(n):
        y, k = x, 1
        while y != e:
            y, k = t[y][x], k + 1
        signatures.append((k, sum(t[x][y] == t[y][x] for y in range(n)), squares.count(x)))
    return signatures


def _unpruned_find_isomorphism(a, b):
    """The depth-first search without relation skips: images of gens[t]
    in index order within the coarse signature class of gens[t], each
    kept only when the map it defines on <gens[:t+1]> (built breadth
    first) is injective and keeps every product x gens[k].  The first
    full map found is returned."""
    if a.order != b.order:
        return None
    gens = a.generators
    if not gens:
        return {a.identity_index: b.identity_index}
    asig = _coarse_signatures(a)
    candidates = collections.defaultdict(list)
    for y, sig in enumerate(_coarse_signatures(b)):
        candidates[sig].append(y)
    images = []

    def partial_map(t):
        phi = {a.identity_index: b.identity_index}
        frontier, hit = [a.identity_index], {b.identity_index}
        while frontier:
            nxt = []
            for x in frontier:
                for k in range(t + 1):
                    y = a.table[x][gens[k]]
                    if y not in phi:
                        phi[y] = b.table[phi[x]][images[k]]
                        if phi[y] in hit:  # not injective
                            return None
                        hit.add(phi[y])
                        nxt.append(y)
            frontier = nxt
        for x, fx in phi.items():
            for k in range(t + 1):
                if phi[a.table[x][gens[k]]] != b.table[fx][images[k]]:
                    return None
        return phi

    def extend(t):
        for y in candidates[asig[gens[t]]]:
            images.append(y)
            phi = partial_map(t)
            if phi is not None:
                phi = phi if t + 1 == len(gens) else extend(t + 1)
                if phi is not None:
                    return phi
            images.pop()
        return None

    return extend(0)


PRODUCT_BASES = {16: ("Q8xZ2", "D4xZ2"), 32: ("Q8xZ(4)", "D4xZ(4)"),
                 64: ("Q8xZ(4)xZ2", "D4xZ(4)xZ2")}


def _permutation_group(*generators):
    """The group the permutations generate (each a tuple of the images of
    0, 1, ...), tabulated."""
    elements = [tuple(range(len(generators[0])))]
    index = {elements[0]: 0}
    for p in elements:
        for s in generators:
            q = tuple(s[x] for x in p)
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
    table = tuple(tuple(index[tuple(q[x] for x in p)] for q in elements)
                  for p in elements)
    return CayleyGroup(len(elements), tuple(map(str, elements)), table, 0)


def _affine_group(n, u):
    """The permutations x -> u^i x + b of Z/n, tabulated (n = 10, u = 9
    is the dihedral group of order 20).  With n = 5, 7 and u = 2, 3 a
    generator of order 4 or 3 conjugates the translations by x -> u x,
    whose inverse differs: the catalog groups and the twisted extensions
    have central squares, so no conjugation there tells a conjugate from
    its inverse."""
    return _permutation_group(tuple((x + 1) % n for x in range(n)),
                              tuple(u * x % n for x in range(n)))


def _search_inputs():
    """Relabelled pairs of the product bases (50 at order 64), the
    twisted extensions against relabelled copies and each other, the
    Q8/D4 product pairs both ways, and affine groups against relabelled
    copies and against a group of their order (dihedral or cyclic)."""
    rng = random.Random(23)
    for order, names in PRODUCT_BASES.items():
        for name in names:
            g = from_catalog(name)
            for _ in range(25 if order == 64 else 8):
                yield relabel(g, rng), relabel(g, rng)
    groups = _twisted_groups()
    for i, a in enumerate(groups):
        yield a, relabel(a, rng)
        for other in groups[i + 1:]:
            if other.order == a.order:
                yield a, other
    for q_name, d_name in [("Q8", "D4"), *PRODUCT_BASES.values()]:
        for left, right in itertools.product((q_name, d_name), repeat=2):
            yield from_catalog(left), from_catalog(right)
    for (n, u), other in [((5, 2), _affine_group(10, 9)), ((7, 2), from_catalog("Z(21)")),
                          ((7, 3), from_catalog("Z(42)"))]:
        g = _affine_group(n, u)
        for _ in range(4):
            yield relabel(g, rng), relabel(g, rng)
        yield g, other
        yield other, g


def test_skipped_images_leave_the_search_result_unchanged():
    # The relation skips and the derived-subgroup flags only drop
    # subtrees that hold no isomorphism, in an unchanged search order, so
    # the map (or None) is the unpruned one; is_isomorphic, with no
    # abelianization check, gives the same answer.
    found = refused = 0
    for a, b in _search_inputs():
        phi = find_isomorphism(a, b)
        assert phi == _unpruned_find_isomorphism(a, b), (a.order, found, refused)
        assert is_isomorphic(a, b) == (phi is not None), (a.order, found, refused)
        if phi is None:
            refused += 1
        else:
            assert is_isomorphism(a, b, phi)
            found += 1
    assert found >= 110 and refused >= 50, (found, refused)


def test_same_signature_pairs_are_decided_as_the_reference_search_decides():
    # Every same-order pair with the same signature multiset goes to the
    # search, which must answer as the search over coarse signatures.
    groups = {(name, torsion, seed): to_cayley(
                  seeded_extension(name, FgAbelian(0, torsion), seed).group)
              for name, torsion in FINITE_CASES for seed in range(3)}
    groups.update(((name, (), None), from_catalog(name))
                  for names in PRODUCT_BASES.values() for name in names)
    assert len(groups) == 177
    signatures = {key: sorted(g.signatures) for key, g in groups.items()}
    found = 0
    for left, right in itertools.combinations(groups, 2):
        a, b = groups[left], groups[right]
        if a.order != b.order or signatures[left] != signatures[right]:
            continue
        expected = _unpruned_find_isomorphism(a, b) is not None
        assert is_isomorphic(a, b) == expected, (left, right)
        found += expected
    assert found >= 200, found


def test_derived_flags_read_the_normal_closure_of_the_commutators():
    # S4 on two 4-cycles: the commutators of its generators make a group
    # of order 3, not normal; G' is A4, of order 12.
    g = _permutation_group((1, 2, 3, 0), (1, 0, 2, 3))
    derived, _ = commutator_quotient(g.table, g.identity_index)
    assert len(derived) == 12
    assert [sig[3:] for sig in g.signatures] == [
        (x in derived, g.table[x][x] in derived) for x in range(g.order)]


def test_derived_flags_tell_apart_what_the_coarse_signatures_do_not():
    # Two extensions of Z/4 by (Z/4)^2, abelianized (2, 4, 4) and
    # (2, 2, 8), agree on the coarse signature multiset: without the
    # flags only the abelianization told them apart before the search.
    a, b = (seeded_extension("Z(4)", FgAbelian(0, (4, 4)), seed).group for seed in (7, 12))
    assert tower.abelianization(a) == FgAbelian(0, (2, 4, 4))
    assert tower.abelianization(b) == FgAbelian(0, (2, 2, 8))
    a, b = to_cayley(a), to_cayley(b)
    assert sorted(_coarse_signatures(a)) == sorted(_coarse_signatures(b))
    assert sorted(a.signatures) != sorted(b.signatures)
    assert _unpruned_find_isomorphism(a, b) is None and not is_isomorphic(a, b)


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
