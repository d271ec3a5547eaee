"""Torus homotopy calculus: binomial multiplicities and tower invariants.

tau_n(X) is the fundamental group of the free mapping space of the
(n-1)-torus into X.  Fox's splitting peels off one torus factor at a
time,

    tau_n(X) = (prod_{i=2..n} pi_i(X)^{alpha_i}) . tau_{n-1}(X),

with alpha_i = C(n-2, i-2), and telescoping the recursion flattens the
tower into ordinary homotopy groups carrying binomial multiplicities
C(n-1, i-1).  The kernel of the projection tau_n -> tau_{n-1} is the
torus homotopy group of the loop space, one degree down.

Everything here works at the level of isomorphism invariants
(TowerSummary).  The only memory of the twisting in the iterated
extension is the is_direct_product flag: Whitehead products against
Gottlieb elements vanish, so nontrivial pairing data or a nontrivial
fundamental-group action is what separates semidirect from direct.

The evaluation subgroup of tau_n is a direct product of classical
Gottlieb groups G_i(X) with multiplicities gamma_i = C(n-1, i-1); a
space is n-Gottlieb when G_n = pi_n, and the gamma-weighted index
product gives an independent route to the same predicate, which
gottlieb_fox_crosscheck exercises from both sides.

tau_n's multiplicities are re-checked against a column walked through
the splitting with additions only: level by level, or up to degree 1024
in packed lanes, one integer per level (_walk_in_lanes).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import add
from typing import Iterator, List, Tuple, Union

from .abelian import TRIVIAL, order_text
from .errors import BookkeepingError, InvalidInputError
from .report import FAIL, INDETERMINATE, PASS, CheckReport
from .spacecat import SpaceModel, subgroup_rows
from .tower import TowerSummary
from .verdict import Indeterminate, Verdict, is_indeterminate, is_true, tri_all


@functools.lru_cache(maxsize=4)
def _binomial_row(a: int) -> Tuple[int, ...]:
    """C(a, 0), ..., C(a, a), each built once from the last by
    C(a, k+1) = C(a, k) * (a-k) / (k+1), exact at every step; the second
    half mirrors the first.  A walk over n asks for rows n-2 and n-1, so
    a few recent rows are kept; at the degree cap one row is about 12 MB.
    """
    half = [1]
    for k in range(a // 2):
        half.append(half[k] * (a - k) // (k + 1))
    return (*half, *reversed(half[:a - a // 2]))


def _binom(a: int, b: int) -> int:
    # Pascal's triangle, zero outside the 0 <= b <= a wedge.
    return _binomial_row(a)[b] if 0 <= b <= a else 0


@dataclass(frozen=True)
class MultiplicityTriple:
    """The three binomial multiplicities attached to degree i inside the
    n-th torus homotopy group.

    alpha counts copies of pi_i in the kernel of tau_n -> tau_{n-1},
    gamma counts copies in the flattened tau_n, and beta = gamma' is the
    complementary count with beta + gamma = C(n, i-1).
    """

    n: int
    i: int
    alpha: int
    beta: int
    gamma: int


def multiplicities(n: int, i: int) -> MultiplicityTriple:
    """Exact multiplicities of degree i in the n-th tower.

    >>> multiplicities(4, 2)
    MultiplicityTriple(n=4, i=2, alpha=1, beta=1, gamma=3)
    >>> multiplicities(3, 2).gamma
    2
    >>> multiplicities(1, 1)
    MultiplicityTriple(n=1, i=1, alpha=0, beta=0, gamma=1)
    """
    if n < 1:
        raise InvalidInputError(f"tower degree must be at least 1, got {n}")
    if not 1 <= i <= n:
        raise InvalidInputError(f"need 1 <= i <= n, got i={i}, n={n}")
    return MultiplicityTriple(n, i,
                              alpha=_binom(n - 2, i - 2),
                              beta=_binom(n - 1, i - 2),
                              gamma=_binom(n - 1, i - 1))


# The last level the column reached: (n, kernel counts alpha(n, .), running
# totals), both indexed by degree from 0.  Replaced whole by one assignment,
# so it is never seen half-stepped.
_COLUMN_START = (2, (0, 0, 1), (0, 1, 1))
_column = _COLUMN_START
_LANE_CAP = 1024  # past about 1400 levels a lane costs more than it saves


def _walk_in_lanes(level: int, alpha: Tuple[int, ...], total: Tuple[int, ...],
                   n: int) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """The column stepped from level to n by the same recursion, each
    level's counts held in one integer, degree i in the lane of bytes
    [i*w, (i+1)*w), w = (n+8)//8: A + (A << 8w) is Pascal's rule on all
    lanes.  No lane carries: every count up to level n is a C(m, k) with
    m < n, below 2^(n-1), and 8w > n."""
    w = (n + 8) // 8

    def unpack(lanes: int) -> Tuple[int, ...]:
        raw = lanes.to_bytes(w * (n + 1), "little")
        return tuple(int.from_bytes(raw[k:k + w], "little") for k in range(0, len(raw), w))

    a, t = (int.from_bytes(b"".join(c.to_bytes(w, "little") for c in counts), "little")
            for counts in (alpha, total))
    for _ in range(level, n):
        a += a << 8 * w
        t += a
    return n, unpack(a), unpack(t)


def recursive_tau_multiplicities(n: int) -> Tuple[int, ...]:
    """Multiplicities of pi_1, ..., pi_n in tau_n computed through the
    splitting recursion, not in closed form; entry i is the count for
    pi_i, and entry 0 is 0.

    Walks the splitting level by level: the kernel counts alpha(m, .) of
    level m come from those of level m-1 by Pascal's rule, and the
    running total sums them over m = 2..n.  Additions only, so the
    column is an independent route to C(n-1, i-1), which it reaches by
    the hockey-stick identity.  The walk steps on from the last level it
    reached and starts again at level 2 only when a smaller n is asked,
    so asking n = 1..N in turn costs O(N^2) additions in all.  A jump of
    16 levels or more that doubles the level, to n <= 1024, takes packed
    lanes (_walk_in_lanes), whose packing shorter jumps do not repay.

    >>> recursive_tau_multiplicities(5)
    (0, 1, 4, 6, 4, 1)
    >>> recursive_tau_multiplicities(1)
    (0, 1)
    """
    global _column
    if n < 1:
        raise InvalidInputError(f"tower degree must be at least 1, got {n}")
    if n == 1:
        return (0, 1)  # tau_1 = pi_1; every kernel lives in degree >= 2
    level, alpha, total = _column if _column[0] <= n else _COLUMN_START
    if n <= _LANE_CAP and n - level >= max(level, 16):
        level, alpha, total = _walk_in_lanes(level, alpha, total, n)
    while level < n:
        alpha = (*map(add, alpha + (0,), (0,) + alpha),)
        total = (*map(add, total + (0,), alpha),)
        level += 1
    _column = (level, alpha, total)
    return total


def recursive_tau_multiplicity(n: int, i: int) -> int:
    """Multiplicity of pi_i in tau_n computed through the splitting
    recursion (summing the per-level kernel counts), not in closed form.

    Telescopes to C(n-1, i-1) by the hockey-stick identity; kept as an
    independent route so the two computations can be played against
    each other.

    >>> recursive_tau_multiplicity(4, 3)
    3
    >>> all(recursive_tau_multiplicity(n, i) == multiplicities(n, i).gamma
    ...     for n in range(1, 12) for i in range(1, n + 1))
    True
    """
    if not 1 <= i <= n:
        raise InvalidInputError(f"need 1 <= i <= n, got i={i}, n={n}")
    return recursive_tau_multiplicities(n)[i]


def _check_degree(x: SpaceModel, n: int, lowest: int = 1) -> None:
    if n < lowest:
        raise InvalidInputError(f"tower degree must be at least {lowest}, got {n}")
    x.pi_at(n)  # InsufficientDataError past the model's data


def whitehead_gottlieb_conflicts(x: SpaceModel) -> List[str]:
    """Nonzero Whitehead pairings against declared Gottlieb generators.

    Whitehead products with Gottlieb elements vanish, so any such
    pairing means the model's tables contradict its evaluation-subgroup
    data.  Returns human-readable descriptions, empty when consistent.
    """
    if x.whitehead_pairs is None:
        return []
    conflicts = []
    for (i, j), table in x.whitehead_pairs.items():
        target = x.pi_at(i + j - 1)
        sides = ((i, j),) if i == j else ((i, j), (j, i))
        for deg, other in sides:
            data = x.gottlieb.get(deg)
            if data is None:
                continue
            gens = subgroup_rows(x.pi_at(deg), data)
            other_coords = x.pi_at(other).n_coords
            for g in gens:
                for b in range(other_coords):
                    # Bilinearity: pair the combination coordinate-wise.
                    if deg == i:
                        vec = [sum(g[a] * table[a][b][k] for a in range(len(g)))
                               for k in range(target.n_coords)]
                    else:
                        vec = [sum(g[a] * table[b][a][k] for a in range(len(g)))
                               for k in range(target.n_coords)]
                    if any(target.reduce(tuple(vec))):
                        conflicts.append(
                            f"{x.name}: pairing ({i},{j}) is nonzero on a "
                            f"degree-{deg} Gottlieb generator")
    return conflicts


def tau_invariants(x: SpaceModel, n: int) -> TowerSummary:
    """Invariant-level description of tau_n(X).

    The fundamental group sits in the base slot; degrees 2..n appear as
    layers with their flattened multiplicities.  is_direct_product
    records whether the iterated extension is untwisted, which holds
    exactly when all Whitehead data vanishes and pi_1 acts trivially.
    After _check_degree, x.pi holds pi_2..pi_n, or none nontrivial if aspherical.
    """
    _check_degree(x, n)
    conflicts = whitehead_gottlieb_conflicts(x)
    if conflicts:
        raise InvalidInputError("inconsistent model: " + "; ".join(conflicts))
    row = _binomial_row(n - 1)
    if row[1:] != recursive_tau_multiplicities(n)[2:]:
        raise BookkeepingError("multiplicity recursion out of step")
    groups = tuple(map(x.pi.get, range(2, n + 1), repeat(TRIVIAL)))
    if x.aspherical or all(grp.is_trivial() for grp in groups):
        direct = True  # nothing to twist: every layer is trivial
    else:
        direct = x.whitehead_trivial() and x.pi1_action_trivial
    return TowerSummary(x.pi1.describe(), x.pi1.order, "pi", 2, groups, row[1:], direct)


def loop_tau_invariants(x: SpaceModel, n: int) -> TowerSummary:
    """Invariant-level description of tau_{n-1} of the loop space of X,
    the kernel of the projection tau_n(X) -> tau_{n-1}(X).

    Loop spaces are H-spaces, so the kernel is abelian at invariant
    level: trivial base, layers pi_i(X)^{C(n-2, i-2)} for 2 <= i <= n.
    """
    _check_degree(x, n, lowest=2)
    groups = tuple(map(x.pi.get, range(2, n + 1), repeat(TRIVIAL)))
    return TowerSummary(1, 1, "pi", 2, groups, _binomial_row(n - 2), True)


def _no_data(x: SpaceModel, i: int) -> Indeterminate:
    return Indeterminate(f"{x.name} has no evaluation-subgroup data at degree {i}")


def gottlieb_fox_invariants(x: SpaceModel, n: int) -> Union[TowerSummary, Indeterminate]:
    """The evaluation subgroup of tau_n: G_i(X)^{C(n-1, i-1)}, i = 1..n.

    A direct product of classical Gottlieb groups.  G_1 is central in
    pi_1, so every layer is abelian, degree 1 included.  Missing
    evaluation-subgroup data at any needed degree makes the whole answer
    indeterminate; it never defaults to the trivial subgroup.  A trivial
    pi_i has a trivial G_i, so only gottlieb_table's degrees are read.
    """
    _check_degree(x, n)
    structs = {}
    for i, (index, struct) in x.gottlieb_table.items():
        if i > n:
            break
        if index is None:
            return _no_data(x, i)
        if struct is None:
            return Indeterminate(
                f"degree-{i} evaluation subgroup of {x.name} has no abelian "
                f"presentation")
        structs[i] = struct
    groups = tuple(map(structs.get, range(1, n + 1), repeat(TRIVIAL)))
    return TowerSummary(1, 1, "G", 1, groups, _binomial_row(n - 1), True)


# ---------------------------------------------------------------------------
# The split exact sequence


def summary_layer_rank(s: TowerSummary) -> int:
    """Free rank carried by the layers alone (the base not included)."""
    return sum(grp.rank * mult for grp, mult in zip(s.groups, s.mults) if grp.rank)


def _padded(s: TowerSummary, lo: int, hi: int):
    """s's groups and multiplicities over degrees lo..hi-1, None and 0 where it has none."""
    head, tail = s.first - lo, hi - s.first - len(s.groups)
    return ((None,) * head + s.groups + (None,) * tail,
            (0,) * head + s.mults + (0,) * tail)


def splitting_walk(x: SpaceModel, max_n: int, report: CheckReport, target: str,
                   prefix: str) -> Iterator[TowerSummary]:
    """Yield tau_1(X), ..., tau_max_n(X), one walk that grades tau_n =
    ker . tau_{n-1} at invariant level into report at each n >= 2.

    The kernel of tau_n(X) -> tau_{n-1}(X) is the loop-space tower one
    degree down, so layer multisets must reconcile by Pascal's rule, ranks
    add and finite orders multiply: entries prefix-layers, -rank and
    -order, named target; failures are entries, not errors.  tau_n is built
    once, the quotient at n+1: the multiplicity column only steps on.
    """
    if max_n < 1:
        return
    quot = tau_invariants(x, 1)
    yield quot
    for n in range(2, max_n + 1):
        whole = tau_invariants(x, n)
        ker = loop_tau_invariants(x, n)
        problems = []
        if whole.base_name_or_order != quot.base_name_or_order:
            problems.append("quotient tower changed the base group")
        if ker.base_name_or_order not in (1, "1"):
            problems.append("kernel tower has a nontrivial base")
        # Every degree any tower holds, in step; one without a layer there
        # takes the whole tower's group.  Faults go in label order, pi10 < pi2.
        lo = min(s.first for s in (whole, quot, ker))
        hi = max(s.first + len(s.groups) for s in (whole, quot, ker))
        (wg, wm), (qg, qm), (kg, km) = (_padded(s, lo, hi) for s in (whole, quot, ker))
        faults = []
        for d, grp, qgrp, kgrp, mult, qmult, kmult in zip(range(lo, hi), wg, qg, kg, wm, qm, km):
            if not ((qgrp is grp or qgrp is None or qgrp == grp)
                    and (kgrp is grp or kgrp is None or kgrp == grp)):
                faults.append((str(d), f"pi{d}: towers disagree on the group"))
            elif mult != qmult + kmult:
                faults.append((str(d), f"pi{d}: multiplicity {mult} != {kmult} + {qmult}"))
        problems.extend(text for _, text in sorted(faults))
        report.add(f"{prefix}-layers", target, n,
                   FAIL if problems else PASS,
                   "layer multisets of the splitting reconcile degree by degree",
                   "; ".join(problems))

        # The base, pi_1, is shared by the whole tower and the quotient.
        lhs_rank = x.pi1.rank + summary_layer_rank(whole)
        rhs_rank = summary_layer_rank(ker) + x.pi1.rank + summary_layer_rank(quot)
        report.add(f"{prefix}-rank", target, n,
                   PASS if lhs_rank == rhs_rank else FAIL,
                   "free rank is additive along the splitting",
                   f"{lhs_rank} vs {rhs_rank}")

        lhs_order = whole.finite_order
        rhs_order = ker.finite_order * quot.finite_order
        report.add(f"{prefix}-order", target, n,
                   PASS if lhs_order == rhs_order else FAIL,
                   "order is multiplicative along the splitting",
                   f"{order_text(lhs_order)} vs {order_text(rhs_order)}")
        yield whole
        quot = whole


def fox_sequence_check(x: SpaceModel, max_n: int) -> CheckReport:
    """Verify tau_n = ker . tau_{n-1} for n = 2..max_n: the splitting walk
    on X, under X's name.  Below n = 2 nothing is built."""
    report = CheckReport(f"splitting of {x.name} up to n={max_n}")
    if max_n >= 2:
        for _ in splitting_walk(x, max_n, report, x.name, "fox-sequence"):
            pass
    return report


# ---------------------------------------------------------------------------
# Gottlieb predicates


def is_n_gottlieb(x: SpaceModel, n: int) -> Verdict:
    """Whether G_n(X) = pi_n(X); indeterminate when the data is absent.

    With no degree-1 data a few classical facts still decide the
    question: a trivial fundamental group is all of its own evaluation
    subgroup; G_1 is contained in the center (Gottlieb), so a
    non-abelian pi_1 can never be covered; and elements of G_1 act
    trivially on every homotopy group (the Jiang subgroup property), so
    a nontrivial pi_1-action also rules it out.
    """
    index, _ = x.gottlieb_entry(n)
    if index is not None:
        return index == 1
    if n == 1 and not (x.pi1.is_abelian() and x.pi1_action_trivial):
        return False
    return _no_data(x, n)


def gottlieb_index_product(x: SpaceModel, n: int) -> Union[int, Indeterminate]:
    """prod_{i=1..n} [pi_i : G_i]^{C(n-1, i-1)}, the index of the
    evaluation subgroup of tau_n when everything in sight is known; a
    trivial pi_i adds nothing, so only gottlieb_table's degrees are read.
    """
    _check_degree(x, n)
    product = 1
    for i, (index, _) in x.gottlieb_table.items():
        if i > n:
            break
        if index is None:
            return _no_data(x, i)
        product *= index ** math.comb(n - 1, i - 1)
    return product


def gottlieb_fox_crosscheck(x: SpaceModel, max_n: int) -> CheckReport:
    """Two independent routes to "the tower is all evaluation subgroup".

    Side (a): X is i-Gottlieb for every i <= n.  Side (b): the
    gamma-weighted index product for tau_n equals 1.  The two must agree
    at every n; a one-sided failure would mean the multiplicity calculus
    and the degree-wise predicates have come apart.
    """
    report = CheckReport(f"Gottlieb vs Gottlieb-Fox on {x.name}")
    side_a: Verdict = True  # tri_all folds: a False wins, then the first Indeterminate
    for n in range(1, max_n + 1):
        side_a = tri_all((side_a, is_n_gottlieb(x, n)))
        product = gottlieb_index_product(x, n)
        if is_indeterminate(side_a) or isinstance(product, Indeterminate):
            report.add("gottlieb-fox-equivalence", x.name, n, INDETERMINATE,
                       "n-Gottlieb iff the tower index product is 1",
                       "evaluation-subgroup data incomplete")
            continue
        side_b = product == 1
        agree = is_true(side_a) == side_b
        detail = (f"Gottlieb through degree {n}: {is_true(side_a)}; "
                  f"index product {order_text(product)}")
        report.add("gottlieb-fox-equivalence", x.name, n,
                   PASS if agree else FAIL,
                   "n-Gottlieb iff the tower index product is 1", detail)
    return report
