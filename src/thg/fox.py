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
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from .abelian import FgAbelian, INFINITY
from .errors import InsufficientDataError, InvalidInputError
from .report import FAIL, INDETERMINATE, PASS, CheckReport
from .spacecat import (SpaceModel, group_describe, group_is_abelian,
                       group_order, group_rank, subgroup_index_in,
                       subgroup_structure_in)
from .tower import TowerSummary, make_summary
from .verdict import Indeterminate, Verdict, is_indeterminate, is_true, tri_all


def _binom(a: int, b: int) -> int:
    # Pascal's triangle, zero outside the 0 <= b <= a wedge.
    return math.comb(a, b) if 0 <= b <= a else 0


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


@functools.lru_cache(maxsize=4)
def recursive_tau_multiplicities(n: int) -> Tuple[int, ...]:
    """Multiplicities of pi_1, ..., pi_n in tau_n computed through the
    splitting recursion, not in closed form; entry i is the count for
    pi_i, and entry 0 is 0.

    Walks the splitting level by level: the kernel counts alpha(m, .) of
    level m come from those of level m-1 by Pascal's rule, and the
    running total sums them over m = 2..n.  Additions only, so the
    column is an independent route to C(n-1, i-1), which it reaches by
    the hockey-stick identity.  A few recent columns are kept, so the
    towers of one request share one.

    >>> recursive_tau_multiplicities(5)
    (0, 1, 4, 6, 4, 1)
    >>> recursive_tau_multiplicities(1)
    (0, 1)
    """
    if n < 1:
        raise InvalidInputError(f"tower degree must be at least 1, got {n}")
    # tau_1 = pi_1 and every kernel lives in degree >= 2; the lists below
    # are indexed from degree 2, starting with level m = 2: alpha = (1,).
    alpha: List[int] = [1]
    total: List[int] = [1] if n >= 2 else []
    for _ in range(3, n + 1):
        alpha = [a + b for a, b in zip(alpha + [0], [0] + alpha)]
        total = [t + a for t, a in zip(total + [0], alpha)]
    return (0, 1, *total)


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
    if n > x.truncation and not x.aspherical:
        raise InsufficientDataError(
            f"{x.name} carries homotopy data up to degree {x.truncation}; "
            f"the degree-{n} tower needs more")


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
            gens = _gottlieb_generators(x, deg)
            if gens is None:
                continue
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


def _gottlieb_generators(x: SpaceModel, i: int):
    """Generator vectors of G_i in pi_i coordinates, or None when unknown.

    Only meaningful for i >= 2 (abelian ambient); pairing tables never
    involve degree 1.
    """
    data = x.gottlieb.get(i)
    grp = x.pi_at(i)
    if group_order(grp) == 1:
        return ()
    if data is None:
        return None
    if data.kind == "trivial":
        return ()
    if data.kind == "full":
        n = grp.n_coords
        return tuple(tuple(1 if k == a else 0 for k in range(n)) for a in range(n))
    if data.kind == "generators":
        return data.generators
    return None


def tau_invariants(x: SpaceModel, n: int) -> TowerSummary:
    """Invariant-level description of tau_n(X).

    The fundamental group sits in the base slot; degrees 2..n appear as
    layers with their flattened multiplicities.  is_direct_product
    records whether the iterated extension is untwisted, which holds
    exactly when all Whitehead data vanishes and pi_1 acts trivially.
    """
    _check_degree(x, n)
    conflicts = whitehead_gottlieb_conflicts(x)
    if conflicts:
        raise InvalidInputError("inconsistent model: " + "; ".join(conflicts))
    column = recursive_tau_multiplicities(n)
    layers = []
    for i in range(2, n + 1):
        mult = _binom(n - 1, i - 1)
        if mult != column[i]:
            raise AssertionError("multiplicity recursion out of step")
        layers.append((f"pi{i}", x.pi_at(i), mult))
    if all(grp.is_trivial() for _, grp, _ in layers):
        direct = True  # nothing to twist
    else:
        direct = x.whitehead_trivial() and x.pi1_action_trivial
    return make_summary(group_describe(x.pi1), group_order(x.pi1), layers, direct)


def loop_tau_invariants(x: SpaceModel, n: int) -> TowerSummary:
    """Invariant-level description of tau_{n-1} of the loop space of X,
    the kernel of the projection tau_n(X) -> tau_{n-1}(X).

    Loop spaces are H-spaces, so the kernel is abelian at invariant
    level: trivial base, layers pi_i(X)^{C(n-2, i-2)} for 2 <= i <= n.
    """
    _check_degree(x, n, lowest=2)
    layers = [(f"pi{i}", x.pi_at(i), _binom(n - 2, i - 2))
              for i in range(2, n + 1)]
    return make_summary(1, 1, layers, True)


def gottlieb_fox_invariants(x: SpaceModel, n: int) -> Union[TowerSummary, Indeterminate]:
    """The evaluation subgroup of tau_n: G_i(X)^{C(n-1, i-1)}, i = 1..n.

    A direct product of classical Gottlieb groups.  G_1 is central in
    pi_1, so every layer is abelian, degree 1 included.  Missing
    evaluation-subgroup data at any needed degree makes the whole answer
    indeterminate; it never defaults to the trivial subgroup.
    """
    _check_degree(x, n)
    layers = []
    for i in range(1, n + 1):
        data = x.gottlieb_at(i)
        if data is None:
            return Indeterminate(
                f"{x.name} has no evaluation-subgroup data at degree {i}")
        struct = subgroup_structure_in(x.pi_at(i), data)
        if struct is None:
            return Indeterminate(
                f"degree-{i} evaluation subgroup of {x.name} has no abelian "
                f"presentation")
        layers.append((f"G{i}", struct, _binom(n - 1, i - 1)))
    return make_summary(1, 1, layers, True)


# ---------------------------------------------------------------------------
# The split exact sequence


def _layer_map(s: TowerSummary) -> Dict[str, Tuple[FgAbelian, int]]:
    out: Dict[str, Tuple[FgAbelian, int]] = {}
    for label, grp, mult in s.layers:
        out[label] = (grp, mult)
    return out


def summary_layer_rank(s: TowerSummary) -> int:
    """Free rank carried by the layers alone (the base not included)."""
    return sum(grp.rank * mult for _, grp, mult in s.layers)


def split_identities(whole: TowerSummary, quot: TowerSummary,
                     ker: TowerSummary, target: str, n: int, prefix: str,
                     base_rank: int) -> CheckReport:
    """Grade the three invariant-level identities of a split extension
    whole = ker . quot whose kernel has trivial base.

    base_rank is the free rank of the shared base of whole and quot.
    One entry each: layer multisets reconcile, free ranks add, finite
    orders multiply.  Failures are entries, not errors.
    """
    report = CheckReport(f"splitting of {target} at n={n}")
    wl, ql, kl = _layer_map(whole), _layer_map(quot), _layer_map(ker)
    problems = []
    if whole.base_name_or_order != quot.base_name_or_order:
        problems.append("quotient tower changed the base group")
    if ker.base_name_or_order not in (1, "1"):
        problems.append("kernel tower has a nontrivial base")
    for label in sorted(set(wl) | set(ql) | set(kl)):
        grp, mult = wl.get(label, (None, 0))
        qgrp, qmult = ql.get(label, (grp, 0))
        kgrp, kmult = kl.get(label, (grp, 0))
        if not (grp == qgrp == kgrp):
            problems.append(f"{label}: towers disagree on the group")
        elif mult != qmult + kmult:
            problems.append(
                f"{label}: multiplicity {mult} != {kmult} + {qmult}")
    report.add(f"{prefix}-layers", target, n,
               FAIL if problems else PASS,
               "layer multisets of the splitting reconcile degree by degree",
               "; ".join(problems))

    lhs_rank = base_rank + summary_layer_rank(whole)
    rhs_rank = summary_layer_rank(ker) + base_rank + summary_layer_rank(quot)
    report.add(f"{prefix}-rank", target, n,
               PASS if lhs_rank == rhs_rank else FAIL,
               "free rank is additive along the splitting",
               f"{lhs_rank} vs {rhs_rank}")

    lhs_order = whole.finite_order
    rhs_order = ker.finite_order * quot.finite_order
    report.add(f"{prefix}-order", target, n,
               PASS if lhs_order == rhs_order else FAIL,
               "order is multiplicative along the splitting",
               f"{lhs_order} vs {rhs_order}")
    return report


def fox_sequence_check(x: SpaceModel, n: int) -> CheckReport:
    """Verify tau_n = ker . tau_{n-1} at invariant level, degree n >= 2.

    The kernel of tau_n(X) -> tau_{n-1}(X) is the loop-space tower one
    degree down, so the layer multisets must reconcile by Pascal's rule,
    ranks must add, and finite orders must multiply.
    """
    whole = tau_invariants(x, n)
    quot = tau_invariants(x, n - 1)
    ker = loop_tau_invariants(x, n)
    return split_identities(whole, quot, ker, x.name, n, "fox-sequence",
                            group_rank(x.pi1))


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
    grp = x.pi_at(n)
    data = x.gottlieb_at(n)
    if data is not None:
        return subgroup_index_in(grp, data) == 1
    if n == 1:
        if not group_is_abelian(grp):
            return False
        if not x.pi1_action_trivial:
            return False
    return Indeterminate(
        f"{x.name} has no evaluation-subgroup data at degree {n}")


def gottlieb_index_product(x: SpaceModel, n: int) -> Union[int, float, Indeterminate]:
    """prod_{i=1..n} [pi_i : G_i]^{C(n-1, i-1)}, the index of the
    evaluation subgroup of tau_n when everything in sight is known.
    """
    _check_degree(x, n)
    product: Union[int, float] = 1
    for i in range(1, n + 1):
        data = x.gottlieb_at(i)
        if data is None:
            return Indeterminate(
                f"{x.name} has no evaluation-subgroup data at degree {i}")
        idx = subgroup_index_in(x.pi_at(i), data)
        gamma = _binom(n - 1, i - 1)
        if idx == INFINITY:
            product = INFINITY if gamma > 0 else product
        else:
            product *= int(idx) ** gamma
    return product


def gottlieb_fox_crosscheck(x: SpaceModel, max_n: int) -> CheckReport:
    """Two independent routes to "the tower is all evaluation subgroup".

    Side (a): X is i-Gottlieb for every i <= n.  Side (b): the
    gamma-weighted index product for tau_n equals 1.  The two must agree
    at every n; a one-sided failure would mean the multiplicity calculus
    and the degree-wise predicates have come apart.
    """
    report = CheckReport(f"Gottlieb vs Gottlieb-Fox on {x.name}")
    verdicts: List[Verdict] = []
    for n in range(1, max_n + 1):
        verdicts.append(is_n_gottlieb(x, n))
        side_a = tri_all(verdicts)
        product = gottlieb_index_product(x, n)
        if is_indeterminate(side_a) or isinstance(product, Indeterminate):
            report.add("gottlieb-fox-equivalence", x.name, n, INDETERMINATE,
                       "n-Gottlieb iff the tower index product is 1",
                       "evaluation-subgroup data incomplete")
            continue
        side_b = product == 1
        agree = is_true(side_a) == side_b
        detail = (f"Gottlieb through degree {n}: {is_true(side_a)}; "
                  f"index product {product}")
        report.add("gottlieb-fox-equivalence", x.name, n,
                   PASS if agree else FAIL,
                   "n-Gottlieb iff the tower index product is 1", detail)
    return report
