"""Finite groups as Cayley tables.

Small groups only: the isomorphism search is capped at order 64, which
covers the catalog.  Construction checks that the table is a Latin
square with a two-sided identity and inverses, and that it is
associative.  Associativity is checked by Light's test on a generating
set, which proves it for every triple, so a CayleyGroup in hand is known
to be a group, not just an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .abelian import (TRIVIAL, FgAbelian, IntMatrix, canonical_form, cokernel,
                      prime_exponent, prime_factors)
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

    table[i][j] is the index of (element i) * (element j).
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
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise InvalidInputError("table must be order x order")
        for row in self.table:
            for v in row:
                if not 0 <= v < n:
                    raise InvalidInputError("table entry out of range")
        for i in range(n):
            if sorted(self.table[i]) != list(range(n)):
                raise InvalidInputError("table row is not a permutation")
            if sorted(self.table[j][i] for j in range(n)) != list(range(n)):
                raise InvalidInputError("table column is not a permutation")
        e = self.identity_index
        if not 0 <= e < n:
            raise InvalidInputError("identity index out of range")
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise InvalidInputError("identity index is not a two-sided identity")
        t = self.table
        for i, j in enumerate(self.inverses):
            if t[j][i] != e:
                raise InvalidInputError("element lacks a two-sided inverse")
        # Light's test: (ab)c = a(bc) for every b in the generating set.
        # The middle factors b for which it holds contain e and are closed
        # under products, so it then holds for every b.
        for b in self.generators:
            for a in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        raise InvalidInputError("multiplication table is not associative")

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


def is_normal(g: CayleyGroup, n: SubgroupRef) -> bool:
    """Whether s n s^-1 lies in n for every generator s: conjugations
    compose, and in a finite group s^-1 is a power of s, so every element
    is a product of generators."""
    if n.parent is not g and n.parent != g:
        raise InvalidInputError("subgroup belongs to a different group")
    members = set(n.element_indices)
    return all(g.conjugate(s, h) in members
               for s in g.generators for h in members)


def subgroup_as_group(g: CayleyGroup, ref: SubgroupRef) -> CayleyGroup:
    """The subgroup itself as a standalone group, names kept verbatim."""
    idx = {x: t for t, x in enumerate(ref.element_indices)}
    k = len(ref.element_indices)
    table = tuple(tuple(idx[g.table[a][b]] for b in ref.element_indices)
                  for a in ref.element_indices)
    names = tuple(g.element_names[x] for x in ref.element_indices)
    return CayleyGroup(k, names, table, idx[g.identity_index])


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


def abelian_structure(g: CayleyGroup) -> FgAbelian:
    """Invariant factors of an abelian Cayley group, which is its own
    abelianization."""
    if not g.is_abelian():
        raise InvalidInputError("abelian_structure needs an abelian group")
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
    over |Q| more columns.

    With a trivial layer this is the abelianized presentation of base on
    its generators: the relators (tree path to q) s (tree path to qs)^-1
    are Schreier's generators of the kernel of the free group on S onto
    base (Reidemeister-Schreier; Sims, Computation with Finitely
    Presented Groups), so they present it.
    """
    gens, t = base.generators, base.table
    m = len(gens)
    width = m + layer.n_coords  # columns: [lifts | layer free | layer torsion]

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
    # Each distinct relation once: on a product base most repeat.
    rows = dict.fromkeys((0,) * m + tuple(row) for row in action_rows)
    for q in range(base.order):
        for k, s in enumerate(gens):
            rows[tuple(u - v for u, v in zip(product(q, k), lift[t[q][s]]))] = None
    rows.pop((0,) * width, None)
    return cokernel(m + layer.rank, layer.torsion, IntMatrix.from_rows(rows, cols=width))


def abelian_structure_by_counting(elements, mul, identity) -> FgAbelian:
    """Invariant factors of a finite abelian group given by bare multiplication.

    For each prime p the counts #{x : x^(p^j) = e} determine the partition
    of p-exponents (the count is p to the sum of min(part, j)); the
    partitions then merge into the divisor chain largest part first.
    Works on any finite element list, no table required.  No library
    code calls it since abelian_structure reads the presentation; it is
    kept while bench/tracer.py traces its name.
    """
    n = len(elements)
    if n == 1:
        return TRIVIAL

    def power(x, k):
        out = identity
        base = x
        while k:
            if k & 1:
                out = mul(out, base)
            base = mul(base, base)
            k >>= 1
        return out

    partitions: Dict[int, List[int]] = {}
    for p in prime_factors(n):
        counts = [1]
        j = 1
        while True:
            pj = p ** j
            counts.append(sum(1 for x in elements if power(x, pj) == identity))
            if counts[-1] == counts[-2]:
                counts.pop()
                break
            j += 1
        s = [prime_exponent(c, p) for c in counts]
        parts: List[int] = []
        for j in range(1, len(s)):
            width = s[j] - s[j - 1]  # parts of size >= j
            while len(parts) < width:
                parts.append(0)
            for t in range(width):
                parts[t] += 1
        partitions[p] = sorted(parts, reverse=True)
    depth = max(len(v) for v in partitions.values())
    factors = []
    for t in range(depth):
        f = 1
        for p, parts in partitions.items():
            if t < len(parts):
                f *= p ** parts[t]
        factors.append(f)
    return canonical_form(0, [f for f in factors if f >= 2])


# ---------------------------------------------------------------------------
# Catalog


def _cyclic(k: int) -> CayleyGroup:
    names = tuple("e" if j == 0 else "t" if j == 1 else f"t{j}" for j in range(k))
    table = tuple(tuple((a + b) % k for b in range(k)) for a in range(k))
    return CayleyGroup(k, names, table, 0)


def _klein_four() -> CayleyGroup:
    names = ("e", "a", "b", "ab")
    # Multiplication is symmetric difference on {a, b}.
    table = (
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (2, 3, 0, 1),
        (3, 2, 1, 0),
    )
    return CayleyGroup(4, names, table, 0)


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
    return CayleyGroup(8, names, table, 0)


def _dihedral4() -> CayleyGroup:
    # r^4 = s^2 = e, s r = r^-1 s
    names = ("e", "r", "r2", "r3", "s", "rs", "r2s", "r3s")

    def mul(a, b):
        ar, af = a % 4, a // 4
        br, bf = b % 4, b // 4
        rexp = (ar + br) % 4 if af == 0 else (ar - br) % 4
        return rexp + 4 * ((af + bf) % 2)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    return CayleyGroup(8, names, table, 0)


def _product(a: CayleyGroup, b: CayleyGroup) -> CayleyGroup:
    n = a.order * b.order
    names = tuple(f"({x},{y})" for x in a.element_names for y in b.element_names)
    table = tuple(
        tuple(a.table[x1][x2] * b.order + b.table[y1][y2]
              for x2 in range(a.order) for y2 in range(b.order))
        for x1 in range(a.order) for y1 in range(b.order))
    return CayleyGroup(n, names, table,
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


def _generating_sequence(g: CayleyGroup) -> List[int]:
    # Greedy, high element orders first, to keep the sequence short.
    by_order = sorted(range(g.order), key=lambda i: (-g.element_order(i), i))
    gens: List[int] = []
    closed = {g.identity_index}
    for x in by_order:
        if x not in closed:
            gens.append(x)
            closed = set(_closure(g, gens))
            if len(closed) == g.order:
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
    The map returned is phi at the last depth.  An isomorphism keeps
    each element's signature, so gens[t] is only sent to elements of its
    own signature.
    """
    if a.order != b.order:
        return None
    gens = a.generators
    if not gens:  # trivial group
        return {a.identity_index: b.identity_index}
    candidates: Dict[Tuple[int, int, int], List[int]] = {}
    for y, sig in enumerate(b.signatures):
        candidates.setdefault(sig, []).append(y)
    trees = [_spanning_tree(a, gens[:t + 1]) for t in range(len(gens))]
    at, bt = a.table, b.table
    images: List[int] = []

    def partial_map(t: int) -> Optional[Dict[int, int]]:
        phi = {a.identity_index: b.identity_index}
        hit = {b.identity_index}
        for x, k, y in trees[t]:
            fy = bt[phi[x]][images[k]]
            if fy in hit:  # not injective
                return None
            hit.add(fy)
            phi[y] = fy
        for x, fx in phi.items():
            for k in range(t + 1):
                if phi[at[x][gens[k]]] != bt[fx][images[k]]:
                    return None
        return phi

    def extend(t: int) -> Optional[Dict[int, int]]:
        for y in candidates.get(a.signatures[gens[t]], ()):
            images.append(y)
            phi = partial_map(t)
            if phi is not None:
                if t + 1 == len(gens):
                    return phi
                phi = extend(t + 1)
                if phi is not None:
                    return phi
            images.pop()
        return None

    return extend(0)


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
