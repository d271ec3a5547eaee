"""Row-at-a-time kernels against the element-at-a-time code they replace.

CayleyGroup validates its table by whole rows and columns, to_cayley
fills rows from segments, check_action compares each composition block
by block, and center_structure and center_index read the center from
one factorization and the factor-set presentation of C.  Each test keeps
the element-by-element version as a test-local oracle and grades the
library against it on seeded inputs: mutated catalog tables up to order
64 (and one of order 66) for the validator, and strategies.extension's
twisted free and mixed layers for the center and its index.
"""

import itertools
import random

import pytest

from strategies import (NO_INVERSE, NOT_ASSOCIATIVE, relabel_table, seeded_extension,
                        sign_characters, unchecked)

from thg.abelian import (INFINITY, FgAbelian, IntMatrix, cokernel, kernel_lattice,
                         solve_integer)
from thg.errors import InvalidInputError
from thg.fingroup import CayleyGroup, _generating_sequence, from_catalog
from thg.tower import LayerAut, center_index, center_structure, check_action


# ---------------------------------------------------------------------------
# The table validator


def _entrywise_fault(n, names, table, e):
    """The first message of the element-by-element validator, or None."""
    if n < 1:
        return "group order must be positive"
    if len(names) != n or len(set(names)) != n:
        return "element names must be distinct and match order"
    if len(table) != n or any(len(row) != n for row in table):
        return "table must be order x order"
    for row in table:
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                return "table entry out of range"
    for i in range(n):
        if sorted(table[i]) != list(range(n)):
            return "table row is not a permutation"
        if sorted(table[j][i] for j in range(n)) != list(range(n)):
            return "table column is not a permutation"
    if not 0 <= e < n:
        return "identity index out of range"
    for i in range(n):
        if table[e][i] != i or table[i][e] != i:
            return "identity index is not a two-sided identity"
    t = table
    for i, j in enumerate(row.index(e) for row in t):
        if t[j][i] != e:
            return NO_INVERSE
    for b in _generating_sequence(unchecked(t, e)):
        for a in range(n):
            ab = t[a][b]
            for c in range(n):
                if t[ab][c] != t[a][t[b][c]]:
                    return NOT_ASSOCIATIVE
    return None


def _intercalate(rows, e, rng, through_identity):
    """Swap x and y in a 2x2 Latin subsquare (rows a, b; columns c, d)
    that avoids row e and column e, so rows and columns stay
    permutations and e stays a two-sided identity.  Through e (x = e) it
    breaks the inverse of a; otherwise the square is usually no longer
    associative.
    Returns False when 400 draws find no such subsquare."""
    n = len(rows)
    others = [x for x in range(n) if x != e]
    for _ in range(400 if n > 2 else 0):
        a, b = rng.sample(others, 2)
        c = rows[a].index(e) if through_identity else rng.choice(others)
        x = rows[a][c]
        d = rows[b].index(x)
        y = rows[a][d]
        # Through e, d = b^-1 outside rows a and b keeps d a != e.
        if (d != e and c != e and rows[b][c] == y and y != e
                and (x == e and d not in (a, b) if through_identity else x != e)):
            rows[a][c], rows[a][d] = y, x
            rows[b][c], rows[b][d] = x, y
            return True
    return False


def _mutations(table, e, rng):
    """(kind, table, identity) triples: the table as it is, and each
    seeded mutation that applies to it."""
    n = len(table)
    yield "none", table, e
    rows = [list(r) for r in table]
    (r1, c1), (r2, c2) = (divmod(k, n) for k in rng.sample(range(n * n), 2))
    rows[r1][c1], rows[r2][c2] = rows[r2][c2], rows[r1][c1]
    yield "swap", rows, e
    rows = [list(r) for r in table]
    rows[rng.randrange(n)][rng.randrange(n)] = rng.choice((-1, n, n + 7))
    yield "out of range", rows, e
    # A float keeps the entry's value, so only its type is wrong.
    row, col = rng.randrange(n), rng.randrange(n)
    for odd in (str(table[row][col]), None, float(table[row][col])):
        rows = [list(r) for r in table]
        rows[row][col] = odd
        yield "not an int", rows, e
    yield "moved identity", table, rng.choice([x for x in range(n) if x != e])
    for kind, through_identity in (("broken inverse", True), ("intercalate", False)):
        rows = [list(r) for r in table]
        if _intercalate(rows, e, rng, through_identity):
            yield kind, rows, e


GROUPS = ["Z2", "Z(3)", "Z2xZ2", "Z(5)", "Z(6)", "Q8", "D4", "Z(4)xZ2",
          "Z(9)", "Q8xZ2", "D4xZ(3)", "Z(32)", "Q8xZ(4)", "D4xZ2xZ2",
          "Q8xZ(4)xZ2", "D4xZ(8)", "Z(64)"]


def _base_tables():
    for name in GROUPS:
        g = from_catalog(name)
        yield name, g.table, g.identity_index
    # Past TABLE_CAP: an intercalate of Z/66 is the non-associative Latin
    # square that once loaded as a group.
    yield "Z/66", tuple(tuple((a + b) % 66 for b in range(66)) for a in range(66)), 0


def test_table_validation_matches_the_entrywise_validator():
    seen = set()
    for (name, base_table, base_e), seed in itertools.product(_base_tables(), range(3)):
        rng = random.Random(f"{name}/{seed}")
        table, e = relabel_table(base_table, base_e, rng)
        for kind, rows, ident in _mutations(table, e, rng):
            n = len(rows)
            names = tuple(f"g{i}" for i in range(n))
            rows = tuple(map(tuple, rows))
            expected = _entrywise_fault(n, names, rows, ident)
            try:
                CayleyGroup(n, names, rows, ident)
                got = None
            except InvalidInputError as exc:
                got = str(exc)
            assert got == expected, (name, seed, kind)
            seen.add((name, kind, got))

    def messages(kind):
        return {got for _, k, got in seen if k == kind}
    assert messages("none") == {None}
    assert messages("out of range") == {"table entry out of range"}
    assert messages("not an int") == {"table entry out of range"}
    assert messages("moved identity") == {"identity index is not a two-sided identity"}
    assert messages("broken inverse") == {NO_INVERSE}
    assert {"table row is not a permutation",
            "table column is not a permutation"} <= messages("swap")
    assert ("Z/66", "intercalate", NOT_ASSOCIATIVE) in seen
    assert len({name for name, k, got in seen
                if k == "intercalate" and got == NOT_ASSOCIATIVE}) >= 10


# ---------------------------------------------------------------------------
# The center on free and mixed layers
#
# The reference is the center code as it stood before the library read
# it from one factorization: Fix(A) from a kernel of the free blocks and
# a case split on each torsion sign, one integer solve per central lift,
# and a relation for every pair of C.  It shares no center code with
# thg.tower, so a fault in the library's lifts or fixed lattice cannot
# hide in the reference too.


def _solve_centrality(g, q):
    """Layer part a with (a, q) central, if any; action(q) must be the
    identity, so that (a, q) commutes with the layer.

    E is generated by the layer and the lifts (0, s), s in
    base.generators, so (a, q) is central iff it commutes with each
    (0, s): iff (I - action(s)) a = c(s,q) - c(q,s).  Torsion coordinates
    turn into congruences, one slack variable each.  Returns reduced
    coordinates or None.
    """
    lay = g.layer
    rank, tors = lay.rank, lay.torsion
    k = len(tors)
    gens = g.base.generators
    width = rank + k + k * len(gens)
    rows = []
    rhs = []
    for t, s in enumerate(gens):
        target = lay.reduce([a - b for a, b in zip(g.cocycle[s][q], g.cocycle[q][s])])
        aut = g.action[s]
        for i, entries in enumerate(aut.free_matrix.entries):
            rows.append([(1 if i == j else 0) - x for j, x in enumerate(entries)]
                        + [0] * (width - rank))
        for i in range(k):
            row = [0] * width
            row[rank + i] = 1 - aut.torsion_signs[i]
            row[rank + k + t * k + i] = tors[i]
            rows.append(row)
        rhs.extend(target)
    sol = solve_integer(IntMatrix.from_rows(rows, cols=width), rhs)
    if sol is None:
        return None
    return lay.reduce(sol[:rank + k])


def _fixed_layer_data(g):
    """Fixed subgroup of the layer under the whole action.

    Fix(A) under Q is the intersection of the kernels of A(s) - I over
    s in base.generators: a point fixed by each A(s) is fixed by their
    products.  Returns (free basis rows, torsion generators) where each
    torsion generator is (coordinate, residue generator, order in Z/t).
    """
    lay = g.layer
    gen_auts = [g.action[s] for s in g.base.generators]
    stacked = [[x - (1 if i == j else 0) for j, x in enumerate(entries)]
               for aut in gen_auts for i, entries in enumerate(aut.free_matrix.entries)]
    # Right kernel of the stack = left kernel of its transpose, which
    # has lay.rank rows even when the stack has none.
    free_basis = kernel_lattice(IntMatrix(lay.rank, len(stacked), tuple(
        tuple(row[j] for row in stacked) for j in range(lay.rank))))
    torsion_gens = []
    for i, t in enumerate(lay.torsion):
        if all(aut.torsion_signs[i] == 1 for aut in gen_auts):
            torsion_gens.append((i, 1, t))
        elif t % 2 == 0:
            # 2a = 0 mod t: the fixed residues are {0, t/2}.
            torsion_gens.append((i, t // 2, 2))
        # odd t with a sign flip fixes only 0: no generator
    return free_basis, torsion_gens


def _center_data(g):
    """What the center's structure and its index are both read from.

    Returns (free basis, torsion generators, lifts) where the first two
    come from _fixed_layer_data and lifts maps each base element q that
    carries central elements to one a_q with (a_q, q) central, a_e = 0.
    The central elements over q are then a_q plus the fixed layer.

    A central (a, q) commutes with the layer, so action(q) is the
    identity, and maps into the center of the base, so q commutes with
    the generators of the base, which generate it.
    """
    free_basis, torsion_gens = _fixed_layer_data(g)
    base = g.base
    lifts = {}
    for q in range(base.order):
        if not g.action[q].is_identity():
            continue
        if not all(base.table[q][s] == base.table[s][q] for s in base.generators):
            continue
        a = _solve_centrality(g, q)
        if a is not None:
            lifts[q] = a
    lifts[base.identity_index] = g.layer.zero()
    return free_basis, torsion_gens, lifts


def _all_pairs_center(g):
    """The center's presentation with a relation for every pair (q, r) of
    C, |C|^2 rows and one integer solve each."""
    free_basis, torsion_gens, lifts = _center_data(g)
    lay = g.layer
    f, m = len(free_basis), len(lifts)
    pos = {q: f + t for t, q in enumerate(lifts)}
    tors_col = {i: (f + m + t, u) for t, (i, u, _) in enumerate(torsion_gens)}
    width = f + m + len(torsion_gens)
    row = [0] * width
    row[pos[g.base.identity_index]] = 1
    rows = [row]
    basis_matrix = IntMatrix(lay.rank, f, tuple(
        tuple(b[j] for b in free_basis) for j in range(lay.rank)))
    for (q, a_q), (r, a_r) in itertools.product(lifts.items(), repeat=2):
        qr = g.base.table[q][r]
        delta = lay.reduce([a + b + c - d for a, b, c, d
                            in zip(a_q, a_r, g.cocycle[q][r], lifts[qr])])
        row = [0] * width
        if f:
            row[:f] = solve_integer(basis_matrix, delta[:lay.rank])
        assert not any(delta[:lay.rank]) or f
        for i, d in enumerate(delta[lay.rank:]):
            if i in tors_col:
                col, u = tors_col[i]
                row[col], d = divmod(d, u)
            assert d == 0
        row[pos[q]] += 1
        row[pos[r]] += 1
        row[pos[qr]] -= 1
        rows.append(row)
    return cokernel(f + m, [o for _, _, o in torsion_gens],
                    IntMatrix.from_rows(rows, cols=width))


CENTER_BASES = ["Z2", "Z(3)", "Z(4)", "Z(6)", "Z2xZ2", "Q8", "D4", "Z(4)xZ2", "Q8xZ2"]
CENTER_LAYERS = [(1, ()), (2, ()), (1, (2,)), (1, (4,)), (2, (3,)), (1, (2, 4))]


def _twisted_extensions():
    for name, (rank, torsion), seed in itertools.product(CENTER_BASES, CENTER_LAYERS,
                                                         range(3)):
        yield (name, rank, torsion, seed), seeded_extension(name, FgAbelian(rank, torsion),
                                                            seed).group


def test_center_on_free_and_mixed_layers_matches_all_pairs():
    checked = twisted = 0
    for case, g in _twisted_extensions():
        assert center_structure(g) == _all_pairs_center(g), case
        checked += 1
        twisted += any(not aut.is_identity() for aut in g.action)
    assert checked == 162 and twisted >= 100, (checked, twisted)


def _reference_index(g):
    """[Q : C] [A : Fix(A)] from the reference: the fixed lattice is a
    kernel, hence a direct summand, so at full rank it is the whole free
    part, and the fixed torsion has one Z/o per torsion generator."""
    free_basis, torsion_gens, lifts = _center_data(g)
    if len(free_basis) < g.layer.rank:
        return INFINITY
    fixed_torsion = 1
    for _, _, o in torsion_gens:
        fixed_torsion *= o
    torsion = 1
    for t in g.layer.torsion:
        torsion *= t
    return g.base.order // len(lifts) * (torsion // fixed_torsion)


def test_center_index_on_free_and_mixed_layers_matches_the_reference():
    indices = []
    for case, g in _twisted_extensions():
        expected = _reference_index(g)
        assert center_index(g) == expected, case
        indices.append(expected)
    assert len(indices) == 162
    # Both a lost rank and finite indices above 1 occur.
    assert indices.count(INFINITY) >= 50 and len(set(indices) - {INFINITY}) >= 4, indices


# ---------------------------------------------------------------------------
# check_action with torsion signs


def _sign_action(base, layer, chars):
    return [LayerAut(layer, IntMatrix.identity(layer.rank), tuple(ch[q] for ch in chars))
            for q in range(base.order)]


def test_z2_and_z4_sign_characters_are_actions():
    layer = FgAbelian(0, (2, 4))
    for name in ("Z(4)", "Z2xZ2", "Q8", "D4", "Q8xZ(4)"):
        base = from_catalog(name)
        characters = sign_characters(base)
        assert len(characters) >= 2
        for first, second in itertools.product(characters, repeat=2):
            check_action(base, _sign_action(base, layer, [first, second]))


def test_a_sign_pattern_that_is_no_character_is_refused_on_z4_only():
    base = from_catalog("Z(4)")
    t = base.index_of("t")
    # t and t^2 both negate: t t = t^2 would have to act as +1.
    pattern = tuple(-1 if q in (t, base.table[t][t]) else 1 for q in range(4))
    trivial = (1,) * 4
    # On Z/2 a sign is the identity, so any pattern is an action there.
    check_action(base, _sign_action(base, FgAbelian(0, (2,)), [pattern]))
    for layer, chars in ((FgAbelian(0, (4,)), [pattern]),
                         (FgAbelian(0, (2, 4)), [trivial, pattern]),
                         (FgAbelian(0, (2, 4)), [pattern, pattern])):
        with pytest.raises(InvalidInputError, match="^action is not a homomorphism$"):
            check_action(base, _sign_action(base, layer, chars))
