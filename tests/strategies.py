"""The tests' inputs and the oracles that grade the library on them.

Each test module draws its groups, layers, actions and extensions here
and grades the library against the scans written here: the whole
multiplication table read pair by pair, the full sweeps of the checks
that the library runs on a generating set only, and exact oracles for
the integer matrix kernel.  No oracle calls the code it grades.  Every
draw takes a random.Random, so the seeded loops of the test modules and
the hypothesis properties (finite_extensions) call the same functions.
"""

import collections
import contextlib
import functools
import itertools
import json
import math
import os
import random
import signal
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from thg.abelian import FgAbelian, IntMatrix
from thg.errors import InvalidInputError
from thg.fingroup import CayleyGroup, _spanning_tree, from_catalog
from thg.tower import LayerAut, VirtAbelian

NOT_ASSOCIATIVE = "multiplication table is not associative"
NO_INVERSE = "element lacks a two-sided inverse"
COCYCLE_FAILS = "cocycle condition fails; product not associative"
WRONG_COUNT = "cocycle value has wrong coordinate count"
NOT_REDUCED = "cocycle values must be reduced coordinates"
NOT_NORMALISED = "cocycle must vanish against the identity"
IDENTITY_ACTS = "identity base element must act trivially"
NOT_HOMOMORPHISM = "action is not a homomorphism"


def expect(build, message):
    """build() succeeds when message is None, else raises it exactly."""
    if message is None:
        build()
        return
    with pytest.raises(InvalidInputError) as info:
        build()
    assert str(info.value) == message


@contextlib.contextmanager
def time_limit(seconds):
    """Fail the test, rather than hang it, when the body runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Integer matrices: independent oracles and the fixed sample


def minor_det(rows):
    """Cofactor-expansion determinant; fine up to 5x5."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        sub = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * minor_det(sub)
    return total


def divisors_by_minors(entries):
    """Invariant factors via determinantal divisors: d_k = D_k / D_{k-1}.

    D_k is the gcd of all k-by-k minors; the quotient chain is the
    Smith diagonal up to sign.  Zero entries appear once the minors of
    that size all vanish.
    """
    rows = [list(r) for r in entries]
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                d = math.gcd(d, abs(minor_det(sub)))
        if d == 0:
            out.extend([0] * (min(m, n) - len(out)))
            break
        out.append(d // prev)
        prev = d
    return out


def rational_rank(entries):
    rows = [[Fraction(x) for x in r] for r in entries]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j] / rows[rank][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def echelon_basis(entries, n):
    """Row basis of the integer row span, by Euclidean row reduction.

    Returns rows in echelon form: each has a leading pivot column, the
    pivot is positive, and entries below a pivot are zero.  Entries
    above are merely reduced, which is all the coset reduction needs.
    """
    rows = [list(r) for r in entries if any(r)]
    basis = []
    for col in range(n):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            reduced = [a]
            for r in live[1:]:
                q = r[col] // a[col]
                for j in range(n):
                    r[j] -= q * a[j]
                if r[col] != 0:
                    reduced.append(r)
                elif any(r):
                    rest.append(r)
            live = reduced
        if live:
            a = live[0]
            basis.append([-x for x in a] if a[col] < 0 else a)
        rows = [r for r in rest if any(r)]
    return basis


def reduce_mod(x, basis):
    """Canonical residue of x modulo the echelon row basis."""
    x = list(x)
    for b in basis:
        col = next(j for j, v in enumerate(b) if v)
        q = x[col] // b[col]
        for j in range(len(x)):
            x[j] -= q * b[j]
    return tuple(x)


def enumerate_quotient(entries, n, cap=2000):
    """All cosets of Z^n modulo the row span, by breadth-first search.

    Returns (residues, add) where residues lists every coset once and
    add composes two of them; None when the quotient is infinite.
    """
    if rational_rank(entries) < n:
        return None
    basis = echelon_basis(entries, n)
    assert len(basis) == n
    zero = reduce_mod((0,) * n, basis)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for j in range(n):
                for s in (1, -1):
                    y = list(x)
                    y[j] += s
                    y = reduce_mod(y, basis)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
        assert len(seen) <= cap, "quotient larger than the enumeration cap"

    def add(a, b):
        return reduce_mod([p + q for p, q in zip(a, b)], basis)

    return sorted(seen), add


def order_multiset(residues, add, zero):
    counts = {}
    for x in residues:
        acc, o = x, 1
        while acc != zero:
            acc = add(acc, x)
            o += 1
        counts[o] = counts.get(o, 0) + 1
    return counts


def predicted_order_multiset(group: FgAbelian):
    counts = {}
    for elt in itertools.product(*(range(t) for t in group.torsion)):
        o = 1
        for c, t in zip(elt, group.torsion):
            o = math.lcm(o, t // math.gcd(c, t))
        counts[o] = counts.get(o, 0) + 1
    return counts


EXEMPLARS = [
    [[0]],
    [[5]],
    [[1]],
    [[2, 4], [6, 8]],
    [[2, 0], [0, 0]],
    [[1, 0], [0, 1]],
    [[2, 0], [0, 4]],
    [[0, 0], [0, 0]],
    [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
    [[1, 0, 0], [0, 2, 0], [0, 0, 6]],
    [[3, 1], [1, 3], [2, 2]],
    [[1, 2, 3], [4, 5, 6]],
]


def _sample_matrices():
    """Every exemplar plus 500 seeded random matrices up to 3x3."""
    rng = random.Random(20260819)
    out = [list(map(list, m)) for m in EXEMPLARS]
    while len(out) < 500 + len(EXEMPLARS):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        out.append([[rng.randint(-4, 4) for _ in range(cols)]
                    for _ in range(rows)])
    return out


SAMPLE = _sample_matrices()


# ---------------------------------------------------------------------------
# Group tables: building, relabelling, and scans of all |G|^2 products


def group(table, e):
    """The table as a CayleyGroup with elements named g0, g1, ..."""
    n = len(table)
    return CayleyGroup(n, tuple(f"g{i}" for i in range(n)), table, e)


def unchecked(table, e):
    """A CayleyGroup that skipped validation.  The greedy generating
    sequence reads only the table, so it can be taken from one."""
    g = object.__new__(CayleyGroup)
    for field, value in (("order", len(table)),
                         ("element_names", tuple(f"g{i}" for i in range(len(table)))),
                         ("table", table), ("identity_index", e)):
        object.__setattr__(g, field, value)
    return g


def relabel_table(table, e, rng):
    """The same table, and its identity, under a random renaming of its
    elements; the table need not be a group's."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return tuple(map(tuple, out)), perm[e]


def relabel(g, rng):
    """g with its elements renumbered by a random permutation."""
    return group(*relabel_table(g.table, g.identity_index, rng))


def random_base(name, rng):
    """The catalog group name under a random relabelling."""
    return relabel(from_catalog(name), rng)


def scan_is_abelian(g):
    t, n = g.table, g.order
    return all(t[a][b] == t[b][a] for a in range(n) for b in range(n))


def scan_center(g):
    """The elements that commute with every element, by the |G|^2 scan."""
    t, n = g.table, g.order
    return tuple(z for z in range(n) if all(t[z][x] == t[x][z] for x in range(n)))


def scan_is_normal(g, members):
    """x h x^-1 in the subgroup for every x in g and h in it."""
    t, n, e = g.table, g.order, g.identity_index
    inverse = [row.index(e) for row in t]
    inside = set(members)
    return all(t[t[x][h]][inverse[x]] in inside for x in range(n) for h in inside)


def cosets(table, members):
    """coset[x] = the least element of x N, for a subgroup N given by its
    members."""
    coset = {}
    for x in range(len(table)):
        if x not in coset:
            for h in members:
                coset[table[x][h]] = x
    return coset


def commutator_quotient(table, identity):
    """(commutator subgroup, coset map) of a group table by a scan of all
    |G|^2 commutators [x, y] = x y x^-1 y^-1, closed under products: no
    generating set and no presentation."""
    n = len(table)
    inv = [row.index(identity) for row in table]
    members = {table[table[table[x][y]][inv[x]]][inv[y]]
               for x in range(n) for y in range(n)}
    while True:
        more = {table[a][b] for a in members for b in members} - members
        if not more:
            break
        members |= more
    return members, cosets(table, members)


def _divisor_chains(n, least=1):
    """Every d1 | d2 | ... | dm with d1 >= 2 and product n."""
    if n == 1:
        yield ()
    for d in range(max(least, 2), n + 1):
        if n % d == 0 and d % least == 0:
            for rest in _divisor_chains(n // d, d):
                yield (d,) + rest


def commutator_quotient_structure(table, identity) -> FgAbelian:
    """Invariant factors of the commutator quotient, by brute force.  A
    finite abelian group with factors d_i has prod gcd(k, d_i) elements
    with x^k = e; match those counts, over every k dividing the order,
    against every divisor chain of the order."""
    members, coset = commutator_quotient(table, identity)
    reps = sorted(set(coset.values()))
    n = len(reps)

    def killed_by(k):
        count = 0
        for r in reps:
            x = identity
            for _ in range(k):
                x = table[x][r]
            count += x in members
        return count

    counts = {k: killed_by(k) for k in range(1, n + 1) if n % k == 0}
    (chain,) = [c for c in _divisor_chains(n)
                if all(math.prod(math.gcd(k, d) for d in c) == v
                       for k, v in counts.items())]
    return FgAbelian(0, chain)


def is_isomorphism(a, b, phi):
    """Bijective, and phi(xy) = phi(x)phi(y) for all |G|^2 pairs."""
    if sorted(phi) != list(range(a.order)) or sorted(phi.values()) != list(range(b.order)):
        return False
    return all(phi[a.table[x][y]] == b.table[phi[x]][phi[y]]
               for x in range(a.order) for y in range(a.order))


# ---------------------------------------------------------------------------
# Extensions element by element, and the full sweeps of their checks


def product(g, x, y):
    """(a, q) * (b, r) = (a + q.b + c(q, r), qr), written out element by
    element on pairs (layer coordinates, base index): the reference that
    to_cayley's tables are checked against."""
    (a, q), (b, r) = x, y
    lay = g.layer
    return lay.add(lay.add(a, g.action[q].apply(b)), g.cocycle[q][r]), g.base.table[q][r]


def one(g):
    return g.layer.zero(), g.base.identity_index


def elements(g):
    """Every pair (layer point, base index) of a finite extension, in the
    row order that to_cayley documents."""
    points = itertools.product(*(range(t) for t in g.layer.torsion))
    return [(a, q) for a in points for q in range(g.base.order)]


def compose(f, g):
    """The layer automorphism f after g."""
    return LayerAut(f.layer, f.free_matrix.mul(g.free_matrix),
                    tuple(s * t for s, t in zip(f.torsion_signs, g.torsion_signs)))


def action_oracle(base, action):
    """The identity acts trivially and every pair (q, r) composes."""
    if not action[base.identity_index].is_identity():
        return IDENTITY_ACTS
    for q in range(base.order):
        for r in range(base.order):
            if compose(action[q], action[r]) != action[base.table[q][r]]:
                return NOT_HOMOMORPHISM
    return None


def cocycle_oracle(base, layer, action, cocycle):
    """COCYCLE_FAILS when some of the |Q|^3 triples breaks
    q.c(r, s) + c(q, rs) = c(q, r) + c(qr, s) in the layer; else None."""
    n, t = base.order, base.table
    for q, r, s in itertools.product(range(n), repeat=3):
        terms = (action[q].apply(cocycle[r][s]), cocycle[q][t[r][s]],
                 cocycle[q][r], cocycle[t[q][r]][s])
        if any(layer.reduce([a + b - c - d for a, b, c, d in zip(*terms)])):
            return COCYCLE_FAILS
    return None


# ---------------------------------------------------------------------------
# Drawing extensions


@functools.lru_cache(maxsize=None)
def sign_characters(base):
    """Every homomorphism from base to {+1, -1}, one sign per element:
    each choice on the generators, spread along the spanning tree, kept
    when it respects every product."""
    out = []
    n, t = base.order, base.table
    for on_gens in itertools.product((1, -1), repeat=len(base.generators)):
        signs = [0] * n
        signs[base.identity_index] = 1
        for x, k, y in _spanning_tree(base, base.generators):
            signs[y] = signs[x] * on_gens[k]
        if all(signs[t[q][r]] == signs[q] * signs[r] for q in range(n) for r in range(n)):
            out.append(tuple(signs))
    return tuple(out)


def random_point(layer, rng):
    return layer.reduce([rng.randint(-3, 3) for _ in range(layer.rank)]
                        + [rng.randrange(m) for m in layer.torsion])


SWAP = IntMatrix.from_rows([[0, 1], [1, 0]])


def draw_action(rng, base, layer):
    """A homomorphism from the base to Aut(layer): each free and each
    torsion coordinate is flipped by a sign character, or, on a rank-2
    free part, both free coordinates are swapped by one."""
    chars = sign_characters(base)
    n, rank = base.order, layer.rank
    if rank == 2 and rng.random() < 0.5:
        swap = rng.choice(chars)
        free = [SWAP if swap[q] == -1 else IntMatrix.identity(2) for q in range(n)]
    else:
        signs = [rng.choice(chars) for _ in range(rank)]
        free = [IntMatrix.from_rows([[ch[q] if i == j else 0 for j, ch in enumerate(signs)]
                                     for i in range(rank)], cols=rank)
                for q in range(n)]
    tors = [rng.choice(chars) for _ in layer.torsion]
    return tuple(LayerAut(layer, free[q], tuple(ch[q] for ch in tors)) for q in range(n))


def cochain(rng, base, layer):
    """A random normalised f: Q -> layer, f(e) = 0."""
    return [layer.zero() if q == base.identity_index else random_point(layer, rng)
            for q in range(base.order)]


def coboundary(base, layer, action, f):
    """The table c(q, r) = f(q) + q.f(r) - f(qr)."""
    t = base.table
    return [[layer.reduce([a + b - d for a, b, d in zip(f[q], action[q].apply(f[r]),
                                                        f[t[q][r]])])
             for r in range(base.order)] for q in range(base.order)]


def carry_cocycle(base, layer, hom, m, v):
    """The carry cocycle of Z/m at v, pulled back along hom: Q -> Z/m
    (hom[q] in range(m)): c(q, r) = v when hom[q] + hom[r] wraps past m.
    It is a cocycle whenever v is fixed by the whole action."""
    zero, n = layer.zero(), base.order
    return [[v if hom[q] + hom[r] >= m else zero for r in range(n)] for q in range(n)]


Extension = collections.namedtuple("Extension", "group carry nonsplit")


def extension(rng, base, layer, action=None):
    """A twisted extension of base by layer drawn from rng: the action
    (draw_action, unless one is given), a carry cocycle at a value v
    fixed by the whole action, and the coboundary of a random cochain.

    The carry is pulled back along the exponent of a generator on a
    cyclic base (m = |Q|), elsewhere along a nontrivial sign character
    (m = 2) where one exists.  v is the first nonzero fixed point among
    20 random points, else 0.  Over a cyclic base and a finite layer the
    extension is non-split exactly when v misses the image of the norm
    map a -> sum of g^k.a; nonsplit reads that, and is False elsewhere.
    Returns Extension(group, carry = v, nonsplit)."""
    if action is None:
        action = draw_action(rng, base, layer)
    n, t = base.order, base.table
    fixed = [a for a in (random_point(layer, rng) for _ in range(20))
             if any(a) and all(action[s].apply(a) == a for s in base.generators)]
    v = fixed[0] if fixed else layer.zero()
    gen = next((x for x in range(n) if base.element_order(x) == n), None)
    nonsplit = False
    if gen is not None:
        hom, power = [0] * n, base.identity_index
        for k in range(n):
            hom[power] = k
            power = t[power][gen]
        m = n
        if layer.rank == 0:
            norms = set()
            for a in itertools.product(*(range(o) for o in layer.torsion)):
                total = layer.zero()
                for _ in range(n):
                    total, a = layer.add(total, a), action[gen].apply(a)
                norms.add(total)
            nonsplit = v not in norms
    else:
        chars = [ch for ch in sign_characters(base) if -1 in ch]
        chi = rng.choice(chars) if chars else (1,) * n
        hom, m = [(1 - s) // 2 for s in chi], 2
    c = carry_cocycle(base, layer, hom, m, v)
    d = coboundary(base, layer, action, cochain(rng, base, layer))
    cocycle = tuple(tuple(map(layer.add, c_row, d_row)) for c_row, d_row in zip(c, d))
    return Extension(VirtAbelian(base, layer, tuple(action), cocycle), v, nonsplit)


def seeded_extension(name, layer, seed):
    """extension() over the catalog group name, seeded by the case."""
    rng = random.Random(f"{name}/{layer.rank}/{layer.torsion}/{seed}")
    return extension(rng, from_catalog(name), layer)


# Catalog bases up to order 16 and torsion layers, paired up to order 64.
FINITE_CASES = [(name, torsion)
                for name in ("Z2", "Z(3)", "Z(4)", "Z(6)", "Z(8)", "Z2xZ2", "Q8", "D4",
                             "Q8xZ2", "D4xZ2")
                for torsion in ((2,), (3,), (4,), (2, 2), (2, 4), (3, 3), (4, 4))
                if from_catalog(name).order * math.prod(torsion) <= 64]


@st.composite
def finite_extensions(draw):
    """extension() of a relabelled catalog base by a torsion layer, at
    most order 64, from a drawn seed."""
    name, torsion = draw(st.sampled_from(FINITE_CASES))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return extension(rng, random_base(name, rng), FgAbelian(0, torsion)).group


# Blocks of a holonomy B of order dividing m, each as (its order, its rows):
# +1, -1, a swap, and rotations of order 3, 4 and 6.
FLAT_BLOCKS = ((1, ((1,),)), (2, ((-1,),)), (2, ((0, 1), (1, 0))),
               (3, ((0, -1), (1, -1))), (4, ((0, -1), (1, 0))), (6, ((1, -1), (1, 0))))
# The flat-manifold corpus: (k, m, seed), k <= 16 and m in {2, 3, 4, 6}.
FLAT_CORPUS = [(k, m, seed) for m in (2, 3, 4, 6)
               for seed, k in enumerate((3, 4, 6, 8, 10, 12, 14, 16))]


def flat_holonomy(k, m, seed):
    """A = 1 + B on Z^k, B a block sum drawn from the FLAT_BLOCKS whose
    order divides m, so A^m = I and A fixes the first coordinate."""
    rng = random.Random(f"flat/{k}/{m}/{seed}")
    rows = [[1] + [0] * (k - 1)]
    while len(rows) < k:
        block = rng.choice([b for order, b in FLAT_BLOCKS
                            if m % order == 0 and len(rows) + len(b) <= k])
        rows += [[0] * len(rows) + list(r) + [0] * (k - len(rows) - len(r))
                 for r in block]
    return rows


def flat_center_rank(a):
    """The oracle: the rank of the fixed lattice, k - rank(A - I)."""
    return len(a) - rational_rank([[x - (i == j) for j, x in enumerate(row)]
                                   for i, row in enumerate(a)])


def record_builds(monkeypatch):
    """The names of the models the loader builds from now on, in order: a
    transformation before the space it names."""
    from thg import spacecat
    built = []
    space, transformation = (spacecat._space_from_doc,
                             spacecat._transformation_from_doc)
    monkeypatch.setattr(spacecat, "_space_from_doc", lambda doc, path="": (
        built.append(doc["name"]) or space(doc, path)))
    monkeypatch.setattr(spacecat, "_transformation_from_doc",
                        lambda doc, name, resolver: (
                            built.append(name)
                            or transformation(doc, name, resolver)))
    return built


def write_flat_manifold(directory, k, m, seed):
    """Write a free Z/m action on T^k into directory, with the space
    document T<k>, and return the action's name t<k>-z<m>-s<seed>.

    t acts by flat_holonomy(k, m, seed) and translates the first circle
    by 1/m: every power t^j is listed at degree 1, and the carry cocycle
    is c(t^a, t^b) = e_1 for a + b >= m.  The orbit space is a flat
    manifold whose center has rank flat_center_rank(A)."""
    a = flat_holonomy(k, m, seed)
    names = ["e", "t"] + [f"t{j}" for j in range(2, m)]
    powers, power = {}, a
    for j in range(1, m):
        powers[names[j]] = {"1": power}
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    e1 = [1] + [0] * (k - 1)
    cocycle = {f"{names[i]},{names[j]}": e1
               for i in range(1, m) for j in range(1, m) if i + j >= m}
    space = {"aspherical": True, "gottlieb": {"1": "full"}, "kind": "space",
             "name": f"T{k}", "pi": {}, "pi1": {"rank": k, "torsion": []},
             "pi1_action": "trivial", "truncation": 1, "whitehead": "trivial"}
    name = f"t{k}-z{m}-s{seed}"
    action = {"action": powers, "cocycle": cocycle, "free": True,
              "group": {"catalog": f"Z({m})"}, "kind": "transformation",
              "space": f"T{k}"}
    for stem, doc in ((f"t{k}", space), (name, action)):
        with open(os.path.join(directory, f"{stem}.json"), "w") as f:
            json.dump(doc, f)
    return name
