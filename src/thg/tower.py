"""Abelian-by-finite groups from an action and a 2-cocycle.

A VirtAbelian is an extension 1 -> A -> E -> Q -> 1 with A finitely
generated abelian and Q a finite Cayley group, presented by the usual
factor-set data: elements are pairs (a, q), multiplied by

    (a, q) * (b, r) = (a + q.b + c(q, r), qr)

where q.b is the action and c the cocycle.  The cocycle condition is
checked on construction, so associativity is a theorem, not a hope.

No element is multiplied one at a time: a finite extension becomes a
CayleyGroup through to_cayley, which fills the product table from index
tables over the layer's points and states the row order.  The center and
the abelianization are read off the factor set.  Groups that only ever
appear as counted invariants (layer types with multiplicities) travel as
TowerSummary.

Whole-group questions are asked on base.generators; each function says
why that is enough.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .abelian import (FgAbelian, INFINITY, IntMatrix, cokernel, det,
                      kernel_lattice, solve_integer)
from .errors import InvalidInputError, UnsupportedError
from .fingroup import TABLE_CAP, CayleyGroup, factor_set_cokernel


@dataclass(frozen=True)
class LayerAut:
    """Automorphism of an FgAbelian layer.

    Free coordinates transform by a unimodular integer matrix; each
    torsion coordinate is scaled by +1 or -1.  The two blocks never mix,
    which covers every action arising from the catalog (coordinate flips
    on torus factors, conjugation and antipodal signs on sphere factors).

    On a Z/2 coordinate -1 and +1 are the same map, and the sign is stored
    as +1, so == is equality as automorphisms.
    """

    layer: FgAbelian
    free_matrix: IntMatrix
    torsion_signs: Tuple[int, ...]

    def __post_init__(self):
        r = self.layer.rank
        if self.free_matrix.rows != r or self.free_matrix.cols != r:
            raise InvalidInputError("free block must be rank x rank")
        # A signed permutation is unimodular; only other blocks need det.
        if not _is_signed_permutation(self.free_matrix) and det(self.free_matrix) not in (1, -1):
            raise InvalidInputError("free block must be unimodular")
        if len(self.torsion_signs) != len(self.layer.torsion):
            raise InvalidInputError("one sign per torsion coordinate required")
        if any(s not in (1, -1) for s in self.torsion_signs):
            raise InvalidInputError("torsion multipliers must be +1 or -1")
        object.__setattr__(self, "torsion_signs", tuple(
            1 if m == 2 else s for s, m in zip(self.torsion_signs, self.layer.torsion)))

    def apply(self, coords: Sequence[int]) -> Tuple[int, ...]:
        return self.layer.reduce(self.apply_unreduced(coords))

    def apply_unreduced(self, coords: Sequence[int]) -> Tuple[int, ...]:
        """The image of coords before the torsion coordinates are reduced."""
        rank = self.layer.rank
        return (self.free_matrix.apply(coords[:rank])
                + tuple(map(operator.mul, self.torsion_signs, coords[rank:])))

    def compose(self, other: "LayerAut") -> "LayerAut":
        """self after other."""
        return LayerAut(self.layer,
                        self.free_matrix.mul(other.free_matrix),
                        tuple(s * t for s, t in zip(self.torsion_signs, other.torsion_signs)))

    def is_identity(self) -> bool:
        # self == identity_aut(layer) without building that LayerAut
        return (-1 not in self.torsion_signs
                and self.free_matrix == IntMatrix.identity(self.layer.rank))


def _is_signed_permutation(m: IntMatrix) -> bool:
    """Exactly one +1 or -1 in each row and each column, zeros elsewhere."""
    columns = set()
    for row in m.entries:
        if row.count(0) != m.cols - 1:
            return False
        unit = 1 if 1 in row else -1
        if unit not in row:
            return False
        columns.add(row.index(unit))
    return len(columns) == m.rows


def identity_aut(layer: FgAbelian) -> LayerAut:
    return LayerAut(layer, IntMatrix.identity(layer.rank),
                    (1,) * len(layer.torsion))


def check_action(base: CayleyGroup, action: Sequence[LayerAut]) -> None:
    """Raise InvalidInputError unless action, one automorphism per element
    of base, is a homomorphism: the identity acts trivially and the
    product qr acts as q after r.

    Only pairs (q, s) with s in base.generators are checked, |Q| |S|
    compositions.  That is enough: every r is e s1 ... sk with each si
    a generator, and by induction on k, action(q r si) =
    action(q r) action(si) = action(q) action(r) action(si) =
    action(q) action(r si).

    This is the one check of that fact; extensions and both model
    loaders call it.
    """
    if not action[base.identity_index].is_identity():
        raise InvalidInputError("identity base element must act trivially")
    for s in base.generators:
        for q in range(base.order):
            if action[q].compose(action[s]) != action[base.table[q][s]]:
                raise InvalidInputError("action is not a homomorphism")


@dataclass(frozen=True)
class TowerSummary:
    """Invariant-level description of a tower-shaped group.

    layers are (degree label, group, multiplicity) triples; finite_order
    multiplies everything out: an int, INFINITY (0) when any part is infinite.
    """

    base_name_or_order: Union[str, int]
    layers: Tuple[Tuple[str, FgAbelian, int], ...]
    is_direct_product: bool
    finite_order: int


def make_summary(base_name_or_order: Union[str, int], base_order: int,
                 layers: Sequence[Tuple[str, FgAbelian, int]],
                 is_direct_product: bool) -> TowerSummary:
    total = base_order
    for _, grp, mult in layers:
        # Once infinite, stay so without raising 1 to huge multiplicities.
        if total != INFINITY and mult:
            total *= grp.order ** mult
    return TowerSummary(base_name_or_order, tuple(layers), is_direct_product, total)


@dataclass(frozen=True)
class VirtAbelian:
    """Extension of a finite base by an f.g. abelian layer, via factor set.

    action[q] is the layer automorphism of the base element with index q;
    cocycle[q][r] is c(q, r) as reduced layer coordinates.
    """

    base: CayleyGroup
    layer: FgAbelian
    action: Tuple[LayerAut, ...]
    cocycle: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __post_init__(self):
        q_count = self.base.order
        if len(self.action) != q_count:
            raise InvalidInputError("need one layer automorphism per base element")
        for aut in self.action:
            if aut.layer != self.layer:
                raise InvalidInputError("automorphism layer mismatch")
        check_action(self.base, self.action)
        e = self.base.identity_index
        if len(self.cocycle) != q_count or any(len(row) != q_count for row in self.cocycle):
            raise InvalidInputError("cocycle table must be base order squared")
        # Each distinct value is checked once, in the order of the table.
        seen = set()
        for q, row in enumerate(self.cocycle):
            for c in row:
                if c in seen:
                    continue
                if len(c) != self.layer.n_coords:
                    raise InvalidInputError("cocycle value has wrong coordinate count")
                if self.layer.reduce(c) != tuple(c):
                    raise InvalidInputError("cocycle values must be reduced coordinates")
                seen.add(c)
            if any(self.cocycle[e][q]) or any(row[e]):
                raise InvalidInputError("cocycle must vanish against the identity")
        # The cocycle condition at (q, r, s) is associativity of the
        # extension with middle factor (0, r).  Layer elements (a, e)
        # pass it, c being normalised and the action linear, so Light's
        # test needs r only in the base's generating set.  For each
        # (r, q) and each coordinate j, the column over s of
        # c(r,s)^q + c(q,rs) - c(qr,s), unreduced, must equal c(q,r)[j]:
        # exactly on a free coordinate, modulo its factor on a torsion one.
        rank, torsion = self.layer.rank, self.layer.torsion
        t, c = self.base.table, self.cocycle
        columns = [tuple(zip(*row)) for row in c]  # columns[q][j][s] = c(q,s)[j]
        moved = [None if aut.is_identity() else aut for aut in self.action]
        for r in self.base.generators:
            t_r = t[r]
            for q in range(q_count):
                aut = moved[q]
                acted = columns[r] if aut is None else tuple(zip(*map(aut.apply_unreduced, c[r])))
                c_q, c_qr, c_q_r = columns[q], columns[t[q][r]], c[q][r]
                for j, w in enumerate(c_q_r):
                    d = map(operator.sub, map(operator.add, acted[j], map(c_q[j].__getitem__, t_r)),
                            c_qr[j])
                    if j >= rank:
                        d = map(operator.mod, d, itertools.repeat(torsion[j - rank]))
                    if any(map(w.__ne__, d)):
                        raise InvalidInputError("cocycle condition fails; product not associative")

    @property
    def order(self) -> int:
        return self.layer.order * self.base.order

    @property
    def rank(self) -> int:
        """Free rank.  A finite-index subgroup has the same rank as the
        whole group, so an extension of a lattice by a finite group
        inherits the lattice's rank."""
        return self.layer.rank

    def is_trivial(self) -> bool:
        return self.order == 1

    def describe(self) -> str:
        o = self.order
        if o == INFINITY:
            return (f"extension of {self.layer.describe()} by a base of "
                    f"order {self.base.order}")
        return f"finite group of order {o}"

    def is_abelian(self) -> bool:
        """Whether the generators of E commute pairwise: the layer and the
        lifts (0, s), s in base.generators.  The layer commutes with (0, s)
        iff s acts trivially, and (0, r)(0, s) = (c(r, s), rs)."""
        gens, t, c = self.base.generators, self.base.table, self.cocycle
        return (all(self.action[s].is_identity() for s in gens)
                and all(t[r][s] == t[s][r] and c[r][s] == c[s][r]
                        for r in gens for s in gens))


def make_virtabelian(base: CayleyGroup, layer: FgAbelian,
                     action: Optional[Mapping[int, LayerAut]] = None,
                     cocycle: Optional[Mapping[Tuple[int, int], Sequence[int]]] = None,
                     ) -> VirtAbelian:
    """Assemble a VirtAbelian from sparse maps.

    Base elements missing from action act as the identity; pairs missing
    from cocycle contribute zero.

    >>> from .fingroup import from_catalog
    >>> g = make_virtabelian(from_catalog("Z(2)"), FgAbelian(0, (2,)))
    >>> g.order
    4
    """
    action = dict(action or {})
    cocycle = dict(cocycle or {})
    ident = identity_aut(layer)
    auts = tuple(action.get(q, ident) for q in range(base.order))
    zero = layer.zero()
    table = tuple(
        tuple(layer.reduce(cocycle[(q, r)]) if (q, r) in cocycle else zero
              for r in range(base.order))
        for q in range(base.order))
    for key in cocycle:
        q, r = key
        if not (0 <= q < base.order and 0 <= r < base.order):
            raise InvalidInputError("cocycle key indexes outside the base group")
    for key in action:
        if not 0 <= key < base.order:
            raise InvalidInputError("action key indexes outside the base group")
    return VirtAbelian(base, layer, auts, table)


def direct_sum_group(base: CayleyGroup, layer: FgAbelian) -> VirtAbelian:
    """Trivial action, zero cocycle: the plain product layer x base."""
    return make_virtabelian(base, layer)


# ---------------------------------------------------------------------------
# Center


def _solve_centrality(g: VirtAbelian, q: int) -> Optional[Tuple[int, ...]]:
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
    rows: List[List[int]] = []
    rhs: List[int] = []
    for t, s in enumerate(gens):
        target = lay.add(g.cocycle[s][q], lay.neg(g.cocycle[q][s]))
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


def _fixed_layer_data(g: VirtAbelian):
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
    # Right kernel of the stack = left kernel of its transpose.
    free_basis = kernel_lattice(IntMatrix.from_rows(stacked, cols=lay.rank).transpose())
    torsion_gens: List[Tuple[int, int, int]] = []
    for i, t in enumerate(lay.torsion):
        if all(aut.torsion_signs[i] == 1 for aut in gen_auts):
            torsion_gens.append((i, 1, t))
        elif t % 2 == 0:
            # 2a = 0 mod t: the fixed residues are {0, t/2}.
            torsion_gens.append((i, t // 2, 2))
        # odd t with a sign flip fixes only 0: no generator
    return free_basis, torsion_gens


def _center_data(g: VirtAbelian):
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
    lifts: Dict[int, Tuple[int, ...]] = {}
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


def center_structure(g: VirtAbelian) -> FgAbelian:
    """Isomorphism type of the center, in invariant-factor form.

    One algorithm for any layer, finite, free or mixed.  Z(E) meets the
    layer in its fixed subgroup and maps onto the base elements C that
    carry central elements, so it is the abelian group on the fixed free
    basis, the fixed torsion generators (each of its order o) and one
    lift l_q per q in C, with l_e = 0 and l_q + l_r - l_qr = delta(q, r),
    the factor-set presentation of an extension of C by the fixed layer
    (K. S. Brown, Cohomology of Groups, IV.3).

    >>> from .fingroup import from_catalog
    >>> center_structure(direct_sum_group(from_catalog("Q8"), FgAbelian(0, (3,))))
    FgAbelian(rank=0, torsion=(6,))
    """
    free_basis, torsion_gens, lifts = _center_data(g)
    lay = g.layer
    f, m = len(free_basis), len(lifts)
    # Coordinates: [fixed free basis | lifts | fixed torsion generators]
    pos = {q: f + t for t, q in enumerate(lifts)}
    tors_col = {i: (f + m + t, u) for t, (i, u, _) in enumerate(torsion_gens)}
    width = f + m + len(torsion_gens)
    row = [0] * width
    row[pos[g.base.identity_index]] = 1
    rows = [row]
    basis_matrix = IntMatrix.from_rows([list(b) for b in free_basis],
                                       cols=lay.rank).transpose()
    for q, a_q in lifts.items():
        for r, a_r in lifts.items():
            qr = g.base.table[q][r]
            # (a_q, q)(a_r, r) = (delta, e)(a_qr, qr) with delta in the
            # fixed layer; action(q) is the identity on the layer here.
            delta = lay.add(lay.add(a_q, a_r),
                            lay.add(g.cocycle[q][r], lay.neg(lifts[qr])))
            row = [0] * width
            if f:
                coeffs = solve_integer(basis_matrix, delta[:lay.rank])
                if coeffs is None:
                    raise InvalidInputError("central defect left the fixed lattice")
                row[:f] = coeffs
            elif any(delta[:lay.rank]):
                raise InvalidInputError("central defect left the fixed lattice")
            # Coordinate i's fixed residues are the multiples of its u.
            for i, d in enumerate(delta[lay.rank:]):
                if i in tors_col:
                    col, u = tors_col[i]
                    row[col], d = divmod(d, u)
                if d:
                    raise InvalidInputError("central defect left the fixed lattice")
            row[pos[q]] += 1
            row[pos[r]] += 1
            row[pos[qr]] -= 1
            rows.append(row)
    return cokernel(f + m, [o for _, _, o in torsion_gens],
                    IntMatrix.from_rows(rows, cols=width))


def center_index(g: VirtAbelian) -> int:
    """[E : Z(E)] = [Q : C] [A : Fix(A)], INFINITY (0) when the fixed layer
    has lower rank than the layer.  Z(E) maps onto C with kernel Fix(A),
    and E maps onto Q with kernel A.

    >>> from .fingroup import from_catalog
    >>> center_index(direct_sum_group(from_catalog("Q8"), FgAbelian(1)))
    4
    """
    free_basis, torsion_gens, lifts = _center_data(g)
    if len(free_basis) < g.layer.rank:
        return INFINITY
    # The fixed lattice is a kernel, hence a direct summand: at full rank
    # it is all of the free part.  The torsion part has one Z/o per
    # torsion generator.
    fixed_torsion = math.prod(o for _, _, o in torsion_gens)
    return g.base.order // len(lifts) * (math.prod(g.layer.torsion) // fixed_torsion)


# ---------------------------------------------------------------------------
# Finite realization and abelianization


def to_cayley(g: VirtAbelian) -> CayleyGroup:
    """The whole extension as an explicit multiplication table.

    Row i is the layer point points[i // |Q|] paired with the base
    element i % |Q|, points being the layer's coordinate tuples in
    lexicographic order; rhodes reads rows in that order.  Names keep the
    base names verbatim when the layer is trivial, and otherwise read
    "(coords;base)".

    The table is filled from index tables over the finite layer's points:
    add[i][j] for sums, act[q][i] for the action and coc[q][r] for the
    cocycle, so the product (a + q.b + c(q,r), qr) is four lookups.  The
    result is still validated as a group by CayleyGroup.

    >>> from .fingroup import from_catalog, is_isomorphic
    >>> is_isomorphic(to_cayley(direct_sum_group(from_catalog("Q8"), FgAbelian(0, ()))),
    ...               from_catalog("Q8"))
    True
    """
    total = g.order
    if total == INFINITY:
        raise UnsupportedError("cannot tabulate an infinite group")
    if total > TABLE_CAP:
        raise UnsupportedError(f"table realization is capped at order {TABLE_CAP}")
    lay, base, nq = g.layer, g.base.table, g.base.order
    points = list(itertools.product(*(range(t) for t in lay.torsion)))
    point = {x: i for i, x in enumerate(points)}
    add = [[point[lay.add(x, y)] for y in points] for x in points]
    act = [[point[aut.apply(x)] for x in points] for aut in g.action]
    coc = [[point[x] for x in row] for row in g.cocycle]
    na = len(points)
    table = tuple(
        tuple(add[add[a][act[q][b]]][coc[q][r]] * nq + base[q][r]
              for b in range(na) for r in range(nq))
        for a in range(na) for q in range(nq))
    names = g.base.element_names if lay.is_trivial() else tuple(
        f"({','.join(map(str, x))};{name})" for x in points for name in g.base.element_names)
    # The zero point is first, so the identity is (0, e) at index e.
    return CayleyGroup(total, names, table, g.base.identity_index)


def abelianization(g: VirtAbelian) -> FgAbelian:
    """Largest abelian quotient of the extension.

    Generators: the layer coordinates plus one symbol per base element.
    Relations: layer torsion, x_e = 0, and for s in base.generators only
    conjugation (a = s.a) and the products of lifts
    x_q + x_s = c(q,s) + x_qs.  Conjugation by s is enough because
    A(qs) - I = A(q)(A(s) - I) + (A(q) - I), so by induction on q every
    conjugation row lies in the span of the generators' rows.  Modulo
    conjugation the cocycle identity reads
    c(r,s) + c(q,rs) = c(q,r) + c(qr,s), so for a generator s the rows
    at (r, s) and (qr, s) turn the row at (q, r) into the row at (q, rs).
    By induction on r every product row holds, and the cokernel is the
    same group.  fingroup.factor_set_cokernel reads that presentation on
    the spanning tree of base.generators, with one lift symbol per
    generator.

    >>> from .fingroup import from_catalog
    >>> abelianization(direct_sum_group(from_catalog("Q8"), FgAbelian(1)))
    FgAbelian(rank=1, torsion=(2, 2))
    """
    if g.base.order > TABLE_CAP:
        raise UnsupportedError(f"abelianization is capped at base order {TABLE_CAP}")
    rank = g.layer.rank
    rows = []
    for s in g.base.generators:
        aut = g.action[s]
        rows.extend([e[i] - (1 if i == j else 0) for j, e in enumerate(aut.free_matrix.entries)]
                    + [0] * len(aut.torsion_signs) for i in range(rank))
        for i, sign in enumerate(aut.torsion_signs):
            row = [0] * g.layer.n_coords
            row[rank + i] = sign - 1
            rows.append(row)
    return factor_set_cokernel(g.base, g.layer, g.cocycle, rows)
