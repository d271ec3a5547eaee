"""Abelian-by-finite groups from an action and a 2-cocycle.

A VirtAbelian is an extension 1 -> A -> E -> Q -> 1 with A finitely
generated abelian and Q a finite Cayley group, presented by the usual
factor-set data: elements are pairs (a, q), multiplied by

    (a, q) * (b, r) = (a + q.b + c(q, r), qr)

where q.b is the action and c the cocycle.  The cocycle condition is
checked on construction, so associativity is a theorem, not a hope.
When every element acts as the identity and every cocycle value is
zero, the condition reads 0 = 0 at every triple; the shape, reduction
and action checks still run, and the columnar sweep does not.

No element is multiplied one at a time: a finite extension becomes a
CayleyGroup through to_cayley, which fills the product table from index
tables over the layer's points and states the row order.  The
abelianization and the center are read off the factor-set presentation
of fingroup.factor_set_relations, the center after one factorization of
its centrality system.  Groups that only ever appear as counted
invariants (layer types with multiplicities) travel as TowerSummary.

Whole-group questions are asked on base.generators; each function says
why that is enough.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .abelian import (FgAbelian, INFINITY, IntMatrix, det, smith_normal_form,
                      solve_factored, span_structure, subgroup_index)
from .errors import InvalidInputError, UnsupportedError
from .fingroup import (TABLE_CAP, CayleyGroup, _generating_sequence,
                       factor_set_cokernel, factor_set_relations)


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

    def is_identity(self) -> bool:
        # self == identity_aut(layer), read off the diagonal of the free block
        off = self.layer.rank - 1
        return (-1 not in self.torsion_signs
                and all(row[i] == 1 and row.count(0) == off
                        for i, row in enumerate(self.free_matrix.entries)))


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
    """Raise InvalidInputError unless action, one automorphism of a common
    layer per element of base, is a homomorphism: the identity acts
    trivially and the product qr acts as q after r.

    Only pairs (q, s) with s in base.generators are checked, |Q| |S|
    compositions.  That is enough: every r is e s1 ... sk with each si
    a generator, and by induction on k, action(q r si) =
    action(q r) action(si) = action(q) action(r) action(si) =
    action(q) action(r si).

    This is the one check of that fact; extensions and both model
    loaders call it.  Each composition is compared block by block, with
    no LayerAut built for it: a product of unimodular blocks is
    unimodular, and a Z/2 sign, stored as +1 on every automorphism, stays
    +1 in a product of signs.  A generator s that acts as the identity
    needs no product: action(q) action(s) is action(q) itself.
    """
    if not action[base.identity_index].is_identity():
        raise InvalidInputError("identity base element must act trivially")
    for s in base.generators:
        qs_column = map(operator.itemgetter(s), base.table)
        if action[s].is_identity():
            if any(map(operator.ne, action, map(action.__getitem__, qs_column))):
                raise InvalidInputError("action is not a homomorphism")
            continue
        matrix_s, signs_s = action[s].free_matrix, action[s].torsion_signs
        for aut_q, qs in zip(action, qs_column):
            aut_qs = action[qs]
            if (aut_q.free_matrix.mul(matrix_s) != aut_qs.free_matrix
                    or tuple(map(operator.mul, aut_q.torsion_signs, signs_s))
                    != aut_qs.torsion_signs):
                raise InvalidInputError("action is not a homomorphism")


@dataclass(frozen=True)
class TowerSummary:
    """Invariant-level description of a tower-shaped group.

    groups[k], carried mults[k] times, is the layer in degree first + k,
    labelled prefix + degree; finite_order multiplies everything out: an
    int, INFINITY (0) when any part is infinite.
    """

    base_name_or_order: Union[str, int]
    base_order: int
    prefix: str
    first: int
    groups: Tuple[FgAbelian, ...]
    mults: Tuple[int, ...]
    is_direct_product: bool

    @cached_property
    def finite_order(self) -> int:
        total = self.base_order
        for grp, mult in zip(self.groups, self.mults):
            if total == INFINITY:
                break  # once infinite, stay so: no later layer is read
            if mult and not grp.is_trivial():  # a trivial layer changes nothing
                total *= grp.order ** mult
        return total


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
        moved = [None if aut.is_identity() else aut for aut in self.action]
        if not any(map(any, seen)) and not any(moved):
            return  # zero cocycle, trivial action: every condition reads 0 = 0
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

    @cached_property
    def center_data(self):
        return _center_data(self)  # once: center_structure and center_index read it

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


def _center_data(g: VirtAbelian):
    """What the center's structure and its index are both read from:
    (fixed, lifts), where fixed generates Fix(A), the layer points fixed
    by the whole action, and lifts maps each base element q that carries
    central elements to one a_q with (a_q, q) central, a_e = 0.  The
    central elements over q are then a_q plus Fix(A).

    E is generated by the layer and the lifts (0, s), s in
    base.generators, so (a, q) is central iff it commutes with each of
    them: iff action(q) is the identity and (I - action(s)) a =
    c(s, q) - c(q, s) for each s.  Fix(A) is the solution set of the same
    system with right-hand side 0.  It is one integer matrix N for every
    q, each torsion coordinate's congruence written with one slack column
    per generator, so N is factored once and each q costs one
    back-substitution.  Fix(A) is spanned by the kernel columns of the
    right transform, cut to the layer's coordinates.  A central (a, q)
    maps into the center of the base, so q commutes with the generators
    of the base, which generate it; only those q are solved for.
    """
    lay, base, gens = g.layer, g.base, g.base.generators
    rank, n, k = lay.rank, lay.n_coords, len(lay.torsion)
    width = n + k * len(gens)  # columns: [layer | slack per (generator, torsion)]
    rows: List[List[int]] = []
    for t, s in enumerate(gens):
        aut = g.action[s]
        for i, entries in enumerate(aut.free_matrix.entries):
            rows.append([(1 if i == j else 0) - x for j, x in enumerate(entries)]
                        + [0] * (width - rank))
        for i, (order, sign) in enumerate(zip(lay.torsion, aut.torsion_signs)):
            row = [0] * width
            row[rank + i] = 1 - sign
            row[n + t * k + i] = order
            rows.append(row)
    snf = smith_normal_form(IntMatrix.from_rows(rows, cols=width))
    diag, _, right = snf
    nonzero = len(diag) - diag.count(0)
    fixed = [lay.reduce(col[:n]) for col in list(zip(*right.entries))[nonzero:]]
    lifts: Dict[int, Tuple[int, ...]] = {}
    for q in range(base.order):
        if not (all(base.table[q][s] == base.table[s][q] for s in gens)
                and g.action[q].is_identity()):
            continue
        # Unreduced: the slack columns absorb multiples of a torsion order.
        a = solve_factored(snf, [x for s in gens
                                 for x in map(operator.sub, g.cocycle[s][q], g.cocycle[q][s])])
        if a is not None:
            lifts[q] = lay.reduce(a[:n])
    return fixed, lifts


def center_structure(g: VirtAbelian) -> FgAbelian:
    """Isomorphism type of the center, in invariant-factor form.

    One algorithm for any layer, finite, free or mixed.  Z(E) meets the
    layer in Fix(A) and maps onto the base elements C that carry central
    elements, so it is generated by Fix(A) and the central lifts
    (a_s, s), s in a generating set S_C of C.  Over C the action is the
    identity and the central lifts commute, so the preimage E_C of C is
    abelian: it is its own abelianization, which the factor-set relations
    of C present on the spanning tree of S_C with no action rows
    (fingroup.factor_set_cokernel gives the Tietze argument;
    tower.abelianization why the rows for s in S_C are enough).  The
    center is the subgroup of E_C that its generators span.

    >>> from .fingroup import from_catalog
    >>> center_structure(direct_sum_group(from_catalog("Q8"), FgAbelian(0, (3,))))
    FgAbelian(rank=0, torsion=(6,))
    """
    fixed, lifts = g.center_data
    lay = g.layer
    gens = _generating_sequence(g.base, list(lifts))
    lift, relations = factor_set_relations(g.base, lay, g.cocycle, gens, ())
    m = len(gens)
    # In the columns [t_s | layer], (a, q) = (a, e)(0, q) is a + x_q.
    generators = [(0,) * m + a for a in fixed]
    generators += [tuple(map(operator.add, lift[s], (0,) * m + lifts[s])) for s in gens]
    torsion_rows = [[0] * (m + lay.rank + i) + [t] + [0] * (len(lay.torsion) - i - 1)
                    for i, t in enumerate(lay.torsion)]
    return span_structure(len(generators), generators + relations + torsion_rows)


def center_index(g: VirtAbelian) -> int:
    """[E : Z(E)] = [Q : C] [A : Fix(A)], INFINITY (0) when Fix(A) has
    lower rank than the layer.  Z(E) maps onto C with kernel Fix(A),
    and E maps onto Q with kernel A.

    >>> from .fingroup import from_catalog
    >>> center_index(direct_sum_group(from_catalog("Q8"), FgAbelian(1)))
    4
    """
    fixed, lifts = g.center_data
    return (g.base.order // len(lifts)
            * subgroup_index(g.layer, IntMatrix.from_rows(fixed, cols=g.layer.n_coords)))


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
    cocycle.  The product (a + q.b + c(q,r), qr) depends on a and b only
    through the point u = a + q.b, so for each q the segment of u over
    r = 0..|Q|-1 is built once, and row (a, q) is the segments at
    u = add[a][act[q][b]] over b, concatenated.  The extension's cocycle
    condition was proved when it was built (by the columnar sweep, or as
    0 = 0 for a zero cocycle under trivial action), so the table is a
    group and is not validated again by CayleyGroup.

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
    # segments[q][u][r] = (u + c(q,r), qr) as a row index
    segments = [[tuple(map(operator.add, map(nq.__rmul__, map(add_u.__getitem__, coc_q)),
                           base_q))
                 for add_u in add]
                for coc_q, base_q in zip(coc, base)]
    table = tuple(
        tuple(itertools.chain.from_iterable(
            map(segments_q.__getitem__, map(add_a.__getitem__, act_q))))
        for add_a in add for act_q, segments_q in zip(act, segments))
    names = g.base.element_names if lay.is_trivial() else tuple(
        f"({','.join(map(str, x))};{name})" for x in points for name in g.base.element_names)
    # The zero point is first, so the identity is (0, e) at index e.  The
    # product of a VirtAbelian, whose cocycle condition is checked, is a group.
    return CayleyGroup._proven(total, names, table, g.base.identity_index)


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
