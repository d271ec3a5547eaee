"""Finite groups as Cayley tables.

Small groups only: the isomorphism search is capped at order 64, which
covers the catalog.  A CayleyGroup in hand is known to be a group, not
just an array, because its table was either checked or built and
proved.  Caller data (documents, relabelled tables) is checked by the
constructor: a Latin square with a two-sided identity and inverses, and
associative by Light's test on a generating set, which proves it for
every triple.  Every check compares whole rows and columns (sets,
tuples, itemgetter reads), never one entry at a time.  The library's own
constructions (the catalog builders, direct products, subgroups,
tower.to_cayley) come through CayleyGroup._proven, each call site saying
why its table is a group.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .abelian import TRIVIAL, FgAbelian, IntMatrix, cokernel
from .errors import InvalidInputError, NotFoundError, UnsupportedError

# The one cap on Cayley tables: the largest order that is named in the
# catalog, tabulated from an extension, or searched for isomorphisms.
TABLE_CAP = 64

# The one cap on the coordinates (rank plus torsion length) of an abelian
# group in a model document.  Actions and extensions build dense square
# matrices over them, so cost grows at least quadratically: with T3's pi1
# at rank 256, a full catalog load takes about 0.02 s (0.002 s as shipped)
# and `verify --all --max-n 4` 0.15 s; at rank 1024 the load alone takes
# 0.34 s.  Shipped ranks are at most 3.
COORD_CAP = 256


@dataclass(frozen=True)
class CayleyGroup:
    """A finite group presented by its full multiplication table.

    table[i][j] is the index of (element i) * (element j).  The
    constructor checks every table it is given; _proven takes a table
    that the library built and proved to be a group.
    """

    order: int
    element_names: Tuple[str, ...]
    table: Tuple[Tuple[int, ...], ...]
    identity_index: int

    def __post_init__(self):
        n = self.order
        if n < 1:
            raise InvalidInputError("group order must be positive")
        if len(self.element_names) != n or len(set(self.element_names)) != n:
            raise InvalidInputError("element names must be distinct and match order")
        t = self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise InvalidInputError("table must be order x order")
        if min(map(min, t)) < 0 or max(map(max, t)) >= n:
            raise InvalidInputError("table entry out of range")
        everyone = set(range(n))
        columns = list(zip(*t))
        for row, column in zip(t, columns):
            if set(row) != everyone:
                raise InvalidInputError("table row is not a permutation")
            if set(column) != everyone:
                raise InvalidInputError("table column is not a permutation")
        e = self.identity_index
        if not 0 <= e < n:
            raise InvalidInputError("identity index out of range")
        in_order = tuple(range(n))
        if tuple(t[e]) != in_order or columns[e] != in_order:
            raise InvalidInputError("identity index is not a two-sided identity")
        # inverses[i] is where e sits in row i; e must sit at (inverses[i], i) too.
        if any(map(e.__ne__, map(operator.getitem, map(t.__getitem__, self.inverses),
                                  range(n)))):
            raise InvalidInputError("element lacks a two-sided inverse")
        # Light's test: (ab)c = a(bc) for every b in the generating set.
        # The middle factors b for which it holds contain e and are closed
        # under products, so it then holds for every b.  Row a of each side
        # is one tuple: the row of ab, and row a read at the entries of
        # row b.  (itemgetter of one index returns a scalar, but only the
        # trivial group has one-entry rows, and it has no generators.)
        rows = list(map(tuple, t))
        for b in self.generators:
            if (list(map(rows.__getitem__, map(operator.itemgetter(b), t)))
                    != list(map(operator.itemgetter(*t[b]), t))):
                raise InvalidInputError("multiplication table is not associative")

    @classmethod
    def _proven(cls, order: int, element_names: Tuple[str, ...],
                table: Tuple[Tuple[int, ...], ...], identity_index: int) -> CayleyGroup:
        """A table the library built and proved to be a group, taken
        without the checks of __post_init__; each caller says why."""
        g = object.__new__(cls)
        g.__dict__.update(order=order, element_names=element_names, table=table,
                          identity_index=identity_index)
        return g

    @cached_property
    def generators(self) -> Tuple[int, ...]:
        """A short generating set, computed once: every element is
        e s1 s2 ... sk with each si in it, multiplied left to right.
        Never contains the identity; empty for the trivial group."""
        return tuple(_generating_sequence(self))

    @cached_property
    def signatures(self) -> Tuple[Tuple[int, int, int], ...]:
        """signatures[i] is (order, centralizer order, number of square
        roots) of element i, computed once; an isomorphism keeps it.  The
        centralizer order is |G| over the size of the conjugacy class,
        which is the orbit under conjugation by the generators: in a
        finite group s^-1 is a power of s, so every conjugation is a
        product of theirs."""
        n, gens = self.order, self.generators
        class_size = [0] * n
        for x in range(n):
            if class_size[x]:
                continue
            orbit, seen = [x], {x}
            for y in orbit:
                for s in gens:
                    z = self.conjugate(s, y)
                    if z not in seen:
                        seen.add(z)
                        orbit.append(z)
            for y in orbit:
                class_size[y] = len(orbit)
        squares = [row[y] for y, row in enumerate(self.table)]
        return tuple((self.element_order(x), n // class_size[x], squares.count(x))
                     for x in range(n))

    @cached_property
    def inverses(self) -> Tuple[int, ...]:
        """inverses[i] is the one j with i j = e, read off row i; the
        constructor checks that j i = e as well."""
        e = self.identity_index
        return tuple(row.index(e) for row in self.table)

    @property
    def rank(self) -> int:
        """Free rank; a finite group has none."""
        return 0

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_abelian(self) -> bool:
        """Whether the generators commute pairwise.  In a finite group
        s^-1 is a power of s, so every element is a product of generators."""
        t, gens = self.table, self.generators
        return all(t[a][b] == t[b][a] for a in gens for b in gens)

    def describe(self) -> str:
        return f"finite group of order {self.order}"

    def index_of(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise NotFoundError(f"no element named {name!r}") from None

    def element_order(self, i: int) -> int:
        e = self.identity_index
        x, k = i, 1
        while x != e:
            x = self.table[x][i]
            k += 1
        return k

    def conjugate(self, x: int, h: int) -> int:
        """x h x^-1."""
        return self.table[self.table[x][h]][self.inverses[x]]


@dataclass(frozen=True)
class SubgroupRef:
    """A subgroup of a CayleyGroup, by sorted member indices."""

    parent: CayleyGroup
    element_indices: Tuple[int, ...]

    def __post_init__(self):
        g = self.parent
        members = set(self.element_indices)
        if tuple(sorted(members)) != self.element_indices:
            raise InvalidInputError("subgroup indices must be sorted and distinct")
        if g.identity_index not in members:
            raise InvalidInputError("subgroup must contain the identity")
        for a in members:
            if g.inverses[a] not in members:
                raise InvalidInputError("subgroup must be closed under inverses")
            for b in members:
                if g.table[a][b] not in members:
                    raise InvalidInputError("subgroup must be closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.element_indices)

    def names(self) -> Tuple[str, ...]:
        return tuple(self.parent.element_names[i] for i in self.element_indices)

    def contains(self, i: int) -> bool:
        return i in set(self.element_indices)


def _closure(g: CayleyGroup, seeds: Iterable[int]) -> List[int]:
    gens = list(seeds)
    for s in gens:
        if not 0 <= s < g.order:
            raise InvalidInputError("seed index out of range")
    # Finite group: closure under products already contains inverses.
    return sorted([g.identity_index] + [y for _, _, y in _spanning_tree(g, gens)])


def subgroup_generated(g: CayleyGroup, seeds: Sequence[int]) -> SubgroupRef:
    """Smallest subgroup containing the seed elements.

    >>> q8 = from_catalog("Q8")
    >>> subgroup_generated(q8, [q8.index_of("i")]).names()
    ('1', '-1', 'i', '-i')
    >>> subgroup_generated(q8, []).order
    1
    """
    return SubgroupRef(g, tuple(_closure(g, seeds)))


def full_subgroup(g: CayleyGroup) -> SubgroupRef:
    return SubgroupRef(g, tuple(range(g.order)))


def center(g: CayleyGroup) -> SubgroupRef:
    """Elements commuting with everything; always a normal subgroup.
    It is enough to commute with the generators: in a finite group s^-1
    is a power of s, so every element is a product of generators.

    >>> center(from_catalog("Q8")).names()
    ('1', '-1')
    >>> center(from_catalog("Z2xZ2")).order
    4
    """
    t = g.table
    return SubgroupRef(g, tuple(z for z in range(g.order)
                                if all(t[z][s] == t[s][z] for s in g.generators)))


def subgroup_as_group(g: CayleyGroup, ref: SubgroupRef) -> CayleyGroup:
    """The subgroup itself as a standalone group, names kept verbatim."""
    idx = {x: t for t, x in enumerate(ref.element_indices)}
    k = len(ref.element_indices)
    table = tuple(tuple(idx[g.table[a][b]] for b in ref.element_indices)
                  for a in ref.element_indices)
    names = tuple(g.element_names[x] for x in ref.element_indices)
    # A SubgroupRef is checked closed under products and inverses in a group.
    return CayleyGroup._proven(k, names, table, idx[g.identity_index])


def abelianization(g: CayleyGroup) -> FgAbelian:
    """g modulo its commutator subgroup, in invariant-factor form: the
    factor-set presentation with a trivial layer, so one symbol per
    generator (see factor_set_cokernel).

    >>> abelianization(from_catalog("Q8"))
    FgAbelian(rank=0, torsion=(2, 2))
    >>> abelianization(from_catalog("Z(6)"))
    FgAbelian(rank=0, torsion=(6,))
    """
    return factor_set_cokernel(g, TRIVIAL)


def factor_set_cokernel(base: CayleyGroup, layer: FgAbelian,
                        cocycle: Optional[Sequence[Sequence[Sequence[int]]]] = None,
                        action_rows: Iterable[Sequence[int]] = ()) -> FgAbelian:
    """The abelian group on the layer's coordinates and lifts x_q, one per
    base element, with relations x_e = 0, x_q + x_s = c(q, s) + x_qs for
    every q and every s in base.generators, and action_rows (in layer
    coordinates), presented on |S| lift symbols t_s = x_s, not |Q|.
    cocycle[q][r] holds c(q, r) as layer coordinates; None is the zero
    cocycle.

    Tietze argument.  Walk the breadth-first tree of base.generators
    from e.  Each tree edge y = x s, in discovery order, meets y for the
    first time, so its relation x_y = x_x + t_s - c(x, s) defines the new
    symbol x_y by older ones; deleting a symbol together with the
    relation that defines it leaves the group unchanged.  After x_e = 0
    every x_q is an integer combination of the t_s and the layer, the
    tree relations become 0 = 0, and what is left are the non-tree
    products x_q + t_s - c(q, s) - x_qs and action_rows: |Q| |S| - |Q| + 1
    rows over rank + |S| + torsion columns in place of about |Q| |S| rows
    over |Q| more columns.  factor_set_relations writes them.

    With a trivial layer this is the abelianized presentation of base on
    its generators: the relators (tree path to q) s (tree path to qs)^-1
    are Schreier's generators of the kernel of the free group on S onto
    base (Reidemeister-Schreier; Sims, Computation with Finitely
    Presented Groups), so they present it.
    """
    gens = base.generators
    _, rows = factor_set_relations(base, layer, cocycle, gens, action_rows)
    return cokernel(len(gens) + layer.rank, layer.torsion,
                    IntMatrix.from_rows(rows, cols=len(gens) + layer.n_coords))


def factor_set_relations(base: CayleyGroup, layer: FgAbelian,
                         cocycle: Optional[Sequence[Sequence[Sequence[int]]]],
                         gens: Sequence[int], action_rows: Iterable[Sequence[int]]
                         ) -> Tuple[Dict[int, List[int]], List[Tuple[int, ...]]]:
    """factor_set_cokernel's presentation, for the subgroup H = <gens> of
    base: (lift, rows) in the columns [t_s, s in gens | layer free |
    layer torsion].  lift[q], for each q in H, is x_q written by the tree;
    rows are action_rows and the non-tree products
    x_q + t_s - c(q, s) - x_qs over q in H, each distinct nonzero
    relation once (on a product base most repeat).
    """
    t, m = base.table, len(gens)
    width = m + layer.n_coords

    def product(x: int, k: int) -> List[int]:
        # x_x + t_k - c(x, gens[k])
        row = lift[x][:]
        row[k] += 1
        if cocycle is not None:
            for i, v in enumerate(cocycle[x][gens[k]], m):
                row[i] -= v
        return row

    lift = {base.identity_index: [0] * width}
    for x, k, y in _spanning_tree(base, gens):
        lift[y] = product(x, k)
    rows = dict.fromkeys((0,) * m + tuple(row) for row in action_rows)
    for q in lift:
        for k, s in enumerate(gens):
            rows[tuple(map(operator.sub, product(q, k), lift[t[q][s]]))] = None
    rows.pop((0,) * width, None)
    return lift, list(rows)


def abelian_structure_by_counting(elements, mul, identity) -> FgAbelian:
    """Invariant factors of a finite abelian group given by bare
    multiplication: its table, checked as caller data, abelianized.  Kept
    only for bench/tracer.py, whose entry names it; ROADMAP item 1
    deletes both."""
    index = {x: i for i, x in enumerate(elements)}  # -1: not an element
    table = tuple(tuple(index.get(mul(x, y), -1) for y in elements) for x in elements)
    g = CayleyGroup(len(table), tuple(map(str, range(len(table)))), table,
                    index.get(identity, -1))
    if not g.is_abelian():
        raise InvalidInputError("abelian_structure_by_counting needs an abelian group")
    return abelianization(g)


# ---------------------------------------------------------------------------
# Catalog


def _cyclic(k: int) -> CayleyGroup:
    names = tuple("e" if j == 0 else "t" if j == 1 else f"t{j}" for j in range(k))
    table = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    # Addition modulo k.
    return CayleyGroup._proven(k, names, table, 0)


def _klein_four() -> CayleyGroup:
    names = ("e", "a", "b", "ab")
    table = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    # Symmetric difference on the subsets of {a, b}: the group (Z/2)^2.
    return CayleyGroup._proven(4, names, table, 0)


def _quaternion() -> CayleyGroup:
    # Index 2 * axis + sign, axes 1, i, j, k and sign 1 for a minus:
    # ij = k, jk = i, ki = j and the reverse products carry a minus.
    names = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")

    def mul(a, b):
        (ax, sa), (bx, sb) = divmod(a, 2), divmod(b, 2)
        if ax == 0 or bx == 0:
            axis, sign = ax + bx, 0
        elif ax == bx:
            axis, sign = 0, 1
        else:
            axis, sign = 6 - ax - bx, int((bx - ax) % 3 == 2)
        return 2 * axis + (sa ^ sb ^ sign)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    # Hamilton's products of the units +-1, +-i, +-j, +-k.
    return CayleyGroup._proven(8, names, table, 0)


def _dihedral4() -> CayleyGroup:
    # r^4 = s^2 = e, s r = r^-1 s
    names = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")

    def mul(a, b):
        ar, af = a % 4, a // 4
        br, bf = b % 4, b // 4
        rexp = (ar + br) % 4 if af == 0 else (ar - br) % 4
        return rexp + 4 * ((af + bf) % 2)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    # Composition of the symmetries r^k s^f of a square, Z/4 x| Z/2.
    return CayleyGroup._proven(8, names, table, 0)


def _product(a: CayleyGroup, b: CayleyGroup) -> CayleyGroup:
    n = a.order * b.order
    names = tuple(f"({x},{y})" for x in a.element_names for y in b.element_names)
    table = tuple(
        tuple(a.table[x1][x2] * b.order + b.table[y1][y2]
              for x2 in range(a.order) for y2 in range(b.order))
        for x1 in range(a.order) for y1 in range(b.order))
    # Componentwise products of two groups.
    return CayleyGroup._proven(n, names, table,
                               a.identity_index * b.order + b.identity_index)


def from_catalog(name: str) -> CayleyGroup:
    """Build a named group: trivial, Z(k), Z2xZ2, Q8, D4, or x-products.
    A group whose order would pass TABLE_CAP is refused before its table
    is built.

    >>> from_catalog("Q8").order
    8
    >>> from_catalog("Z(1)").order
    1
    >>> from_catalog("Z(4)xZ2").order
    8
    """
    g = _try_catalog(name)
    if g is None:
        raise NotFoundError(f"unknown group name {name!r}")
    return g


def _try_catalog(name: str) -> Optional[CayleyGroup]:
    if name == "trivial":
        return _cyclic(1)
    if name == "Z2xZ2":
        return _klein_four()
    if name == "Q8":
        return _quaternion()
    if name == "D4":
        return _dihedral4()
    if name == "Z2":
        return _cyclic(2)
    if name.startswith("Z(") and name.endswith(")"):
        body = name[2:-1]
        if body.isdigit() and int(body) >= 1:
            _check_order(name, int(body))
            return _cyclic(int(body))
        # else fall through: "Z(4)xZ(2)" also matches the delimiters
    for pos in range(1, len(name) - 1):
        if name[pos] != "x":
            continue
        left = _try_catalog(name[:pos])
        if left is None:
            continue
        right = _try_catalog(name[pos + 1:])
        if right is not None:
            _check_order(name, left.order * right.order)
            return _product(left, right)
    return None


def _check_order(name: str, order: int) -> None:
    if order > TABLE_CAP:
        raise UnsupportedError(f"group {name!r} has order {order}, beyond "
                               f"the table cap {TABLE_CAP}")


# ---------------------------------------------------------------------------
# Isomorphism testing


def _generating_sequence(g: CayleyGroup,
                         subgroup: Optional[Sequence[int]] = None) -> List[int]:
    """Generators of subgroup, a list of the elements of a subgroup of g
    (all of g by default)."""
    # Greedy, high element orders first, to keep the sequence short.
    members = range(g.order) if subgroup is None else subgroup
    by_order = sorted(members, key=lambda i: (-g.element_order(i), i))
    gens: List[int] = []
    closed = {g.identity_index}
    for x in by_order:
        if x not in closed:
            gens.append(x)
            closed = set(_closure(g, gens))
            if len(closed) == len(members):
                break
    return gens


def _spanning_tree(g: CayleyGroup, gens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Edges (x, k, y) with y = x gens[k] of the breadth-first tree of
    <gens> rooted at the identity, in discovery order."""
    seen = {g.identity_index}
    frontier = [g.identity_index]
    edges = []
    while frontier:
        nxt = []
        for x in frontier:
            for k, s in enumerate(gens):
                y = g.table[x][s]
                if y not in seen:
                    seen.add(y)
                    edges.append((x, k, y))
                    nxt.append(y)
        frontier = nxt
    return edges


def find_isomorphism(a: CayleyGroup, b: CayleyGroup) -> Optional[Dict[int, int]]:
    """An explicit isomorphism a -> b as an index map, or None.

    Generator images are chosen by backtracking, depth t fixing the image
    of gens[t].  Each partial choice must already be an injective
    homomorphism on H = <gens[:t+1]>.  The map phi is built along the
    breadth-first tree of H, computed once per depth, as
    phi(x gens[k]) = phi(x) images[k] on each tree edge; then phi must be
    injective and satisfy phi(x gens[k]) = phi(x) images[k] for every x
    in H and every k <= t.  That is enough: every y in H is a word
    gens[k1] ... gens[km], so by induction on m,
    phi(x y) = phi(x) images[k1] ... images[km] = phi(x) phi(y).
    The map returned is phi at the last depth.

    Before that check, an image y of g = gens[t] is skipped when it
    breaks a relation that every isomorphism extending the map phi' on
    H' = <gens[:t]> keeps: y has g's signature; y images[k] y^-1 =
    phi'(c) for each k < t whose conjugate c = g gens[k] g^-1 lies in
    H'; y^m = phi'(g^m) for the least m with g^m in H'; and each element
    of H has its image's signature.  A skipped subtree holds no
    isomorphism, and the order of the search is unchanged, so the first
    map found is the same as without the skips.
    """
    if a.order != b.order:
        return None
    gens = a.generators
    if not gens:  # trivial group
        return {a.identity_index: b.identity_index}
    at, bt, asig, bsig = a.table, b.table, a.signatures, b.signatures
    candidates: Dict[Tuple[int, int, int], List[int]] = {}
    for y, sig in enumerate(bsig):
        candidates.setdefault(sig, []).append(y)
    trees = [_spanning_tree(a, gens[:t + 1]) for t in range(len(gens))]
    # relations[t]: the (k, c) with c in H' (the set inside), m and g^m.
    relations, inside = [], {a.identity_index}
    for t, g in enumerate(gens):
        conjugates = [(k, a.conjugate(g, gens[k])) for k in range(t)]
        power, m = g, 1
        while power not in inside:
            power, m = at[power][g], m + 1
        relations.append(([(k, c) for k, c in conjugates if c in inside], m, power))
        inside = {a.identity_index}.union(y for _, _, y in trees[t])
    images: List[int] = []

    def partial_map(t: int) -> Optional[Dict[int, int]]:
        phi = {a.identity_index: b.identity_index}
        hit = {b.identity_index}
        for x, k, y in trees[t]:
            fy = bt[phi[x]][images[k]]
            if fy in hit or bsig[fy] != asig[y]:  # not injective, or not kept
                return None
            hit.add(fy)
            phi[y] = fy
        for x, fx in phi.items():
            for k in range(t + 1):
                if phi[at[x][gens[k]]] != bt[fx][images[k]]:
                    return None
        return phi

    def extend(t: int, prev: Dict[int, int]) -> Optional[Dict[int, int]]:
        conjugates, m, power = relations[t]
        for y in candidates.get(asig[gens[t]], ()):
            y_inv = b.inverses[y]
            if any(bt[bt[y][images[k]]][y_inv] != prev[c] for k, c in conjugates):
                continue
            z = y
            for _ in range(m - 1):
                z = bt[z][y]
            if z != prev[power]:
                continue
            images.append(y)
            phi = partial_map(t)
            if phi is not None:
                if t + 1 == len(gens):
                    return phi
                phi = extend(t + 1, phi)
                if phi is not None:
                    return phi
            images.pop()
        return None

    return extend(0, {a.identity_index: b.identity_index})


def is_isomorphic(a: CayleyGroup, b: CayleyGroup) -> bool:
    """Isomorphism test for orders up to 64.

    Cheap invariants (order, the multiset of element signatures,
    abelianization) reject most pairs before any search runs.

    >>> is_isomorphic(from_catalog("Q8"), from_catalog("D4"))
    False
    >>> is_isomorphic(from_catalog("Z(4)"), from_catalog("Z2xZ2"))
    False
    >>> is_isomorphic(from_catalog("Z(4)xZ2"), from_catalog("Z2xZ(4)"))
    True
    """
    if a.order > TABLE_CAP or b.order > TABLE_CAP:
        raise UnsupportedError(f"isomorphism search is capped at order {TABLE_CAP}")
    if a.order != b.order:
        return False
    if sorted(a.signatures) != sorted(b.signatures):
        return False
    if abelianization(a) != abelianization(b):
        return False
    return find_isomorphism(a, b) is not None
