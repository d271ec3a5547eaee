"""Rhodes groups, the subgroup G0, and the classification audits.

sigma_n(X, G) collects homotopy classes [f; g] of maps of order g from
a cylinder over the (n-1)-torus, one end pinned at the basepoint, the
other at its g-translate; multiplication twists by the action, and the
result is an extension of tau_n(X) by G.  For a free action Rhodes
identified sigma_n(X, G) with tau_n(X/G), which turns the entire
sigma calculus into orbit-space bookkeeping, and that is how this
module computes: every sigma answer is an orbit-space tau answer.  The
order and rank arithmetic of the extension is the independent check,
graded once per degree in rhodes_split_check's walk; sigma_1 is
tabulated once per model (TransformationModel.sigma1_table).

G0 is the subgroup of elements of G that are freely homotopic to the
identity map of X.  It is the image of the evaluation subgroup of
sigma_n under the projection to G, so the Gottlieb-Rhodes group
G sigma_n is an extension of the Gottlieb-Fox group G tau_n by G0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from .abelian import order_doc, order_text
from .errors import BookkeepingError, InvalidInputError, UnsupportedError
from .fingroup import (TABLE_CAP, CayleyGroup, SubgroupRef,
                       center as group_center, subgroup_as_group)
from .fox import (gottlieb_fox_invariants, gottlieb_index_product,
                  is_n_gottlieb, splitting_walk, summary_layer_rank,
                  tau_invariants)
from .report import (CONFIRMED, EXPECTED_EXCEPTION, FAIL, INDETERMINATE,
                     NOT_APPLICABLE, PASS, VACUOUS, VIOLATION, CheckReport)
from .spacecat import (FULL, SpaceModel, TransformationModel, orbit_space,
                       subgroup_ref)
from .tower import TowerSummary, VirtAbelian, abelianization, center_structure
from .verdict import (Indeterminate, Verdict, is_false, is_indeterminate,
                      is_true, tri_all, verdict_label)

IN_G0 = "in_G0"
NOT_IN_G0 = "not_in_G0"
UNDETERMINED = "undetermined"


# ---------------------------------------------------------------------------
# G0: the elements freely homotopic to the identity


@dataclass(frozen=True)
class G0Result:
    """Per-element membership in G0, each verdict tagged with the rule
    that produced it.

    subgroup is the set of confirmed members as a subgroup of G; it is
    None when undetermined verdicts leave the set possibly incomplete.
    """

    group: CayleyGroup
    per_element_verdict: Dict[str, Tuple[str, str]]  # name -> (verdict, rule)
    subgroup: Optional[SubgroupRef]

    def fully_determined(self) -> bool:
        return all(v != UNDETERMINED
                   for v, _ in self.per_element_verdict.values())

    def members(self) -> Tuple[str, ...]:
        return tuple(name for name in self.group.element_names
                     if self.per_element_verdict[name][0] == IN_G0)

    def covers_group(self) -> Verdict:
        """Whether G0 = G, as far as the verdicts can tell."""
        if any(v == NOT_IN_G0 for v, _ in self.per_element_verdict.values()):
            return False
        if self.fully_determined():
            return True
        stuck = [name for name, (v, _) in self.per_element_verdict.items()
                 if v == UNDETERMINED]
        return Indeterminate(f"membership of {', '.join(stuck)} in G0 is "
                             f"undetermined")


def _acts_nontrivially(tg: TransformationModel, g: int) -> List[int]:
    """Degrees at which element g induces a non-identity automorphism.

    Degrees absent from the model's action table induce the identity by
    convention, so only stored degrees need scanning.
    """
    return [d for d, auts in sorted(tg.action_by_degree.items())
            if not auts[g].is_identity()]


def compute_g0(tg: TransformationModel) -> G0Result:
    """Classify each element of G as freely homotopic to the identity
    map of X or not.  First applicable rule wins:

    explicit model data; then the necessary condition (a map homotopic
    to the identity induces identity maps, and on the fundamental group
    at worst an inner automorphism, which for our abelian layer data
    means the identity); then aspherical spaces, where inducing the
    identity is also sufficient; then free actions on spheres, where
    the Lefschetz number forces degree one in odd dimensions and degree
    minus one in even ones.  What no rule reaches stays undetermined.
    Computed once per model; every call returns the same object.
    """
    return tg.derive("g0", _g0_by_rules)


def _g0_by_rules(tg: TransformationModel) -> G0Result:
    G = tg.group
    verdicts: Dict[str, Tuple[str, str]] = {}
    for g in range(G.order):
        name = G.element_names[g]
        if tg.g0_explicit is not None:
            verdict = IN_G0 if tg.g0_explicit.contains(g) else NOT_IN_G0
            verdicts[name] = (verdict, "explicit model data")
            continue
        if g == G.identity_index:
            verdicts[name] = (IN_G0, "the identity map is freely homotopic "
                                     "to itself")
            continue
        bad = _acts_nontrivially(tg, g)
        if bad:
            verdicts[name] = (
                NOT_IN_G0,
                f"induced map differs from the identity at degree "
                f"{', '.join(map(str, bad))}")
            continue
        if tg.space.aspherical:
            verdicts[name] = (IN_G0, "aspherical: inducing the identity on "
                                     "the fundamental group suffices")
            continue
        if tg.sphere_dimension is not None and tg.free:
            if tg.sphere_dimension % 2 == 1:
                verdicts[name] = (IN_G0, "fixed-point-free self-map of an "
                                         "odd sphere has degree one "
                                         "(Lefschetz)")
            else:
                verdicts[name] = (NOT_IN_G0, "fixed-point-free self-map of "
                                             "an even sphere has degree "
                                             "minus one")
            continue
        verdicts[name] = (UNDETERMINED, "no applicable criterion")

    subgroup = None
    if all(v != UNDETERMINED for v, _ in verdicts.values()):
        members = [g for g in range(G.order)
                   if verdicts[G.element_names[g]][0] == IN_G0]
        subgroup = SubgroupRef(G, tuple(sorted(members)))
    return G0Result(G, verdicts, subgroup)


# ---------------------------------------------------------------------------
# sigma_n through the orbit space


def _require_free(tg: TransformationModel) -> None:
    if not tg.free:
        raise UnsupportedError(
            "Rhodes towers are computed through the orbit space, which "
            "needs a free action")


def sigma_invariants(tg: TransformationModel, n: int) -> TowerSummary:
    """Invariant-level description of sigma_n(X, G) for a free action,
    computed as tau_n of the orbit space.

    The extension 1 -> tau_n(X) -> sigma_n -> G -> 1 gives an
    independent handle on the answer: order |G| * |tau_n(X)| and the
    free rank of tau_n(X).  Neither is re-derived here; rhodes_split_check
    grades both.
    """
    _require_free(tg)
    return tau_invariants(orbit_space(tg), n)


def sigma1_group(tg: TransformationModel) -> CayleyGroup:
    """sigma_1(X, G) as a multiplication table: classes [a; g] with
    product [a1 + g1.a2 + c(g1, g2); g1 g2].

    Needs a finite fundamental group and a total order within the
    tabulation cap.  The table is the model's one tabulation
    (TransformationModel.sigma1_table), which is also the orbit space's
    fundamental group for a free action over an abelian pi_1, so the
    two agree by construction; the verify battery grades its
    isomorphism type against the frozen catalog facts.
    """
    cay = tg.sigma1_table
    if cay is None:
        raise UnsupportedError(
            f"sigma_1 of {tg.name} has order {order_text(tg.sigma1_extension.order)}, "
            f"beyond the tabulation cap {TABLE_CAP}")
    return cay


def rhodes_split_check(tg: TransformationModel, max_n: int) -> CheckReport:
    """The action's one walk up its Rhodes tower, n = 1..max_n.

    sigma_n is tau_n of the orbit space, whose pi_i are X's in degrees two
    and up, so Fox's splitting walk there grades sigma_n = ker . sigma_{n-1}
    under the action's name.  Each sigma_n it yields is graded against the
    extension by G: order (sigma-order) and free rank (a BookkeepingError).
    gsigma-order checks the base arithmetic of rebasing G tau_n over G0: true by construction."""
    _require_free(tg)
    x, orbit = tg.space, orbit_space(tg)
    report = CheckReport(f"Rhodes tower of {tg.name} up to n={max_n}")
    split = CheckReport(f"splitting of {tg.name} up to n={max_n}")
    walk = splitting_walk(orbit, max_n, split, tg.name, "rhodes-sequence")
    for n, s in enumerate(walk, 1):
        tau_x = tau_invariants(x, n)
        report.add("sigma-order", tg.name, n,
                   PASS if s.finite_order == tg.group.order * tau_x.finite_order else FAIL,
                   "orbit-space order equals |G| times the tau order",
                   f"{order_doc(s.finite_order)} vs {tg.group.order} * "
                   f"{order_doc(tau_x.finite_order)}")
        orbit_rank = orbit.pi1.rank + summary_layer_rank(s)
        tau_rank = x.pi1.rank + summary_layer_rank(tau_x)
        if orbit_rank != tau_rank:
            raise BookkeepingError(f"sigma_{n}({tg.name}): orbit rank "
                                   f"{orbit_rank} vs tau rank {tau_rank}")
        gr = gottlieb_rhodes_invariants(tg, n)
        if not isinstance(gr, Indeterminate):
            want = gr.gtau.finite_order * gr.g0.subgroup.order
            report.add("gsigma-order", tg.name, n,
                       PASS if gr.summary.finite_order == want else FAIL,
                       "evaluation-subgroup order is |Gtau_n| times |G0|",
                       f"{order_doc(gr.summary.finite_order)} vs {order_doc(want)}")
    report.extend(split)
    return report


# ---------------------------------------------------------------------------
# Gottlieb-Rhodes groups


@dataclass(frozen=True)
class GottliebRhodesResult:
    """G sigma_n at invariant level: the Gottlieb-Fox summary gtau over base G0.

    realized is the honest group when it can be tabulated (degree 1,
    full Gottlieb-Fox kernel, finite sigma_1): the preimage of G0 in
    sigma_1.  The summary's direct-product flag is True only when the
    extension is forced to split (trivial G0); otherwise the extension
    class is not determined by the data and the flag stays False.
    """

    summary: TowerSummary
    g0: G0Result
    gtau: TowerSummary
    realized: Optional[CayleyGroup] = None


def gottlieb_rhodes_invariants(
        tg: TransformationModel, n: int) -> Union[GottliebRhodesResult, Indeterminate]:
    """The evaluation subgroup of sigma_n: an extension of the
    Gottlieb-Fox group by G0, so |G sigma_n| = |G tau_n| * |G0|.

    Indeterminate when G0 is not fully determined or the Gottlieb data
    under the Gottlieb-Fox layers is missing.
    """
    _require_free(tg)
    g0 = compute_g0(tg)
    if g0.subgroup is None:
        return Indeterminate(
            f"G0 of {tg.name} is not fully determined, so neither is the "
            f"evaluation subgroup of sigma_{n}")
    gtau = gottlieb_fox_invariants(tg.space, n)
    if isinstance(gtau, Indeterminate):
        return gtau
    direct = g0.subgroup.order == 1 and gtau.is_direct_product
    base_label = f"G0 of order {g0.subgroup.order}"
    summary = replace(gtau, base_name_or_order=base_label,
                      base_order=g0.subgroup.order, is_direct_product=direct)

    realized = None
    if n == 1:
        realized = _realize_gsigma1(tg, g0, summary)
    return GottliebRhodesResult(summary, g0, gtau, realized)


def _realize_gsigma1(tg: TransformationModel, g0: G0Result,
                     summary: TowerSummary) -> Optional[CayleyGroup]:
    """Tabulate G sigma_1 as the preimage of G0 in sigma_1, when the
    kernel is all of tau_1 (so the preimage description is exact) and
    sigma_1 itself is small enough to tabulate."""
    if not is_true(is_n_gottlieb(tg.space, 1)):
        return None
    try:
        cay = tg.sigma1_table
    except (InvalidInputError, UnsupportedError):
        return None
    if cay is None:
        return None
    # Row i of the table lies over the base element i % |G| (to_cayley).
    n = tg.sigma1_extension.base.order
    ref = SubgroupRef(cay, tuple(i for i in range(cay.order)
                                 if g0.subgroup.contains(i % n)))
    realized = subgroup_as_group(cay, ref)
    if realized.order != summary.finite_order:
        raise BookkeepingError(
            f"G sigma_1({tg.name}): realized order {realized.order} vs "
            f"bookkeeping {order_text(summary.finite_order)}")
    return realized


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class RuledVerdict:
    """A three-valued verdict together with the rule that produced it."""

    value: Verdict
    rule: str

    def label(self) -> str:
        return verdict_label(self.value)


@dataclass(frozen=True)
class DegreeVerdicts:
    n: int
    gottlieb: RuledVerdict
    gottlieb_fox: RuledVerdict
    gottlieb_rhodes: RuledVerdict
    equivariant_gottlieb: RuledVerdict


@dataclass
class ClassificationReport:
    """Per-degree and space-level classification of one free action."""

    target: str
    max_n: int
    per_degree: List[DegreeVerdicts]
    space_level: Dict[str, RuledVerdict]
    consistency: CheckReport


def _equivariant_verdict(tg: TransformationModel, orbit: SpaceModel,
                         n: int) -> RuledVerdict:
    """Whether the equivariant evaluation subgroup fills pi_n.

    Under a free action only the trivial subgroup has a nonempty fixed
    set, so the condition lives on X itself.  A trivial acting group
    makes it the ordinary condition; in degrees two and up the covering
    projection identifies the equivariant subgroup with the orbit
    space's, and degree one has no derivation rule beyond the forced
    simply-connected case.
    """
    if tg.group.is_trivial():
        return RuledVerdict(is_n_gottlieb(tg.space, n),
                            "trivial group: the equivariant condition is "
                            "the ordinary one")
    if n >= 2:
        return RuledVerdict(is_n_gottlieb(orbit, n),
                            "projection identifies the equivariant subgroup "
                            "with the orbit space's")
    if tg.space.pi1.is_trivial():
        return RuledVerdict(True, "forced: trivial fundamental group")
    return RuledVerdict(
        Indeterminate(f"no derivation rule for the degree-1 equivariant "
                      f"evaluation subgroup of {tg.space.name}"),
        "degree-1 equivariant data must be explicit")


def classify(tg: TransformationModel, max_n: int) -> ClassificationReport:
    """Grade one free action degree by degree.

    Four predicates per degree: n-Gottlieb and n-Gottlieb-Fox live on X
    alone; n-Gottlieb-Rhodes is n-Gottlieb-Fox together with G0 = G;
    equivariant n-Gottlieb reduces along the covering.  Space-level
    verdicts are conjunctions over all graded degrees, and a standing
    consistency entry records that Gottlieb-Rhodes was never granted
    with G0 short of G.
    """
    _require_free(tg)
    x = tg.space
    orbit = orbit_space(tg)
    g0 = compute_g0(tg)
    g0_all = g0.covers_group()
    consistency = CheckReport(f"classification consistency for {tg.name}")

    per_degree: List[DegreeVerdicts] = []
    for n in range(1, max_n + 1):
        gott = RuledVerdict(is_n_gottlieb(x, n),
                            "evaluation subgroup fills the homotopy group")
        product = gottlieb_index_product(x, n)
        if isinstance(product, Indeterminate):
            fox_v: Verdict = product
            shown = "unknown"
        else:
            fox_v = product == 1
            shown = order_text(product)
        fox = RuledVerdict(fox_v, "binomial-weighted index product over the "
                           f"tower = {shown}")
        rhodes = RuledVerdict(tri_all([fox_v, g0_all]),
                              "Gottlieb-Fox together with G0 = G")
        equiv = _equivariant_verdict(tg, orbit, n)
        per_degree.append(DegreeVerdicts(n, gott, fox, rhodes, equiv))

        granted = is_true(rhodes.value)
        conflict = granted and not is_true(g0_all)
        consistency.add(
            "rhodes-needs-g0", tg.name, n,
            FAIL if conflict else PASS,
            "n-Gottlieb-Rhodes is never granted unless G0 = G",
            f"gottlieb-rhodes {verdict_label(rhodes.value)}, "
            f"G0 covers G: {verdict_label(g0_all)}")

    space_level = {
        field.replace("_", "-"): RuledVerdict(
            tri_all(getattr(d, field).value for d in per_degree),
            f"{name} at every graded degree")
        for field, name in (("gottlieb", "n-Gottlieb"), ("gottlieb_fox", "n-Gottlieb-Fox"),
                            ("gottlieb_rhodes", "n-Gottlieb-Rhodes"),
                            ("equivariant_gottlieb", "equivariant n-Gottlieb"))}
    return ClassificationReport(tg.name, max_n, per_degree, space_level,
                                consistency)


# ---------------------------------------------------------------------------
# Audits


def _grade_implication(report: CheckReport, check: str, target: str,
                       n: Optional[int], rule: str, hypothesis: Verdict,
                       conclusion: Verdict, boundary: bool = False) -> None:
    """Audit one instance of "hypothesis implies conclusion".

    boundary marks instances outside the statement's stated range,
    where a failure is a documented exception rather than a violation.
    """
    if is_indeterminate(hypothesis):
        report.add(check, target, n, INDETERMINATE, rule,
                   f"hypothesis undecided: {hypothesis.reason}")
    elif is_false(hypothesis):
        report.add(check, target, n, VACUOUS, rule, "hypothesis fails")
    elif is_indeterminate(conclusion):
        report.add(check, target, n, INDETERMINATE, rule,
                   f"conclusion undecided: {conclusion.reason}")
    elif is_true(conclusion):
        report.add(check, target, n, CONFIRMED, rule, "")
    elif boundary:
        report.add(check, target, n, EXPECTED_EXCEPTION, rule,
                   "hypothesis holds and the conclusion fails, at the "
                   "degree the statement excludes")
    else:
        report.add(check, target, n, VIOLATION, rule,
                   "hypothesis holds and the conclusion fails")


def equivariant_gottlieb_audit(tg: TransformationModel,
                               max_n: int) -> CheckReport:
    """Audit, on one free action, the passage of the Gottlieb condition
    across the covering:

    forward, equivariant n-Gottlieb forces the orbit space to be
    n-Gottlieb in degrees two and up (degree one genuinely fails, and
    instances of that failure are graded expected-exception, not
    violation); backward, an n-Gottlieb orbit space forces equivariant
    n-Gottlieb in every degree; and for aspherical X the forward
    implication holds at degree one as well, where the audit also
    checks the supporting rank statement: the orbit fundamental group
    abelianizes to a free abelian group of the same rank.
    """
    _require_free(tg)
    orbit = orbit_space(tg)
    report = CheckReport(f"equivariant Gottlieb audit of {tg.name}")
    for n in range(1, max_n + 1):
        equiv = _equivariant_verdict(tg, orbit, n).value
        orb = is_n_gottlieb(orbit, n)
        _grade_implication(
            report, "equivariant-implies-orbit", tg.name, n,
            "equivariant n-Gottlieb makes the orbit space n-Gottlieb "
            "(degrees two and up)",
            equiv, orb, boundary=(n == 1))
        _grade_implication(
            report, "orbit-implies-equivariant", tg.name, n,
            "an n-Gottlieb orbit space makes the action equivariant "
            "n-Gottlieb",
            orb, equiv)

    if tg.space.aspherical:
        equiv1 = _equivariant_verdict(tg, orbit, 1).value
        orb1 = is_n_gottlieb(orbit, 1)
        _grade_implication(
            report, "aspherical-degree-one", tg.name, 1,
            "for aspherical spaces, equivariant 1-Gottlieb makes the "
            "orbit space 1-Gottlieb",
            equiv1, orb1)
        if is_true(equiv1):
            _audit_aspherical_rank(report, tg, orbit)
    else:
        report.add("aspherical-degree-one", tg.name, 1, NOT_APPLICABLE,
                   "for aspherical spaces, equivariant 1-Gottlieb makes "
                   "the orbit space 1-Gottlieb",
                   "total space is not aspherical")
    return report


def _audit_aspherical_rank(report: CheckReport, tg: TransformationModel,
                           orbit: SpaceModel) -> None:
    """The supporting fact behind the aspherical degree-one statement: a
    central extension of a lattice by a finite group acting trivially is
    again a lattice of the same rank, so the orbit fundamental group
    must abelianize to a torsion-free group of the rank of pi_1(X)."""
    pi1 = orbit.pi1
    if isinstance(pi1, VirtAbelian):
        ab = abelianization(pi1)
    else:
        report.add("aspherical-rank", tg.name, 1, INDETERMINATE,
                   "the orbit fundamental group is free abelian of the "
                   "rank of pi_1(X)",
                   "no abelianization route for this group form")
        return
    want = tg.space.pi1.rank
    ok = ab.torsion == () and ab.rank == want
    report.add("aspherical-rank", tg.name, 1,
               CONFIRMED if ok else VIOLATION,
               "the orbit fundamental group is free abelian of the rank "
               "of pi_1(X)",
               f"abelianization {ab.describe()}, expected rank {want}")


def aspherical_gottlieb_check(tg: TransformationModel,
                              max_n: int) -> CheckReport:
    """For a free action on an aspherical space: the orbit space is
    Gottlieb (through max_n) exactly when (X, G) is Gottlieb-Rhodes.

    Both sides are computed independently, the left from the orbit
    space's own evaluation subgroups (for aspherical quotients the
    degree-1 subgroup is the center of the fundamental group, computed
    by the fixed-lattice route), the right from the index product and
    G0.  Non-aspherical models get a not-applicable entry.
    """
    rule = ("aspherical: the orbit space is Gottlieb exactly when the "
            "action is Gottlieb-Rhodes")
    report = CheckReport(f"aspherical Gottlieb equivalence for {tg.name}")
    if not tg.space.aspherical:
        report.add("aspherical-equivalence", tg.name, None, NOT_APPLICABLE,
                   rule, "total space is not aspherical")
        return report
    _require_free(tg)
    orbit = orbit_space(tg)

    # Evidence entry: the center that decides the orbit's degree-1 term.
    pi1 = orbit.pi1
    if isinstance(pi1, VirtAbelian):
        cz = center_structure(pi1)
        report.add("orbit-center", tg.name, 1, PASS,
                   "degree-1 evaluation subgroup of an aspherical space is "
                   "the center of its fundamental group",
                   f"center of pi_1(orbit) = {cz.describe()} (rank {cz.rank})")

    orbit_side = tri_all(is_n_gottlieb(orbit, n) for n in range(1, max_n + 1))
    g0_all = compute_g0(tg).covers_group()
    fox_parts: List[Verdict] = []
    for n in range(1, max_n + 1):
        product = gottlieb_index_product(tg.space, n)
        fox_parts.append(product if isinstance(product, Indeterminate)
                         else product == 1)
    rhodes_side = tri_all(fox_parts + [g0_all])

    if is_indeterminate(orbit_side) or is_indeterminate(rhodes_side):
        reason = orbit_side if is_indeterminate(orbit_side) else rhodes_side
        report.add("aspherical-equivalence", tg.name, None, INDETERMINATE,
                   rule, reason.reason)
    else:
        agree = is_true(orbit_side) == is_true(rhodes_side)
        report.add("aspherical-equivalence", tg.name, None,
                   PASS if agree else FAIL, rule,
                   f"orbit Gottlieb: {verdict_label(orbit_side)}; "
                   f"Gottlieb-Rhodes: {verdict_label(rhodes_side)}")
    return report


def oprea_check(tg: TransformationModel,
                orbit_model: Optional[SpaceModel] = None) -> CheckReport:
    """For a free action on an odd sphere, the degree-1 evaluation
    subgroup of the quotient is the center of the acting group (Oprea).

    The derived orbit model carries that fact by construction, so the
    meaningful comparison is against independent data: pass the catalog
    model of the same quotient as orbit_model and its explicit degree-1
    subgroup is matched element by element against a center scan of the
    acting group's multiplication table.
    """
    rule = ("the degree-1 evaluation subgroup of an odd-sphere quotient "
            "is the center of the acting group (Oprea)")
    report = CheckReport(f"odd-sphere center check for {tg.name}")
    odd = tg.sphere_dimension is not None and tg.sphere_dimension % 2 == 1
    if not (tg.free and odd):
        report.add("oprea-center", tg.name, 1, NOT_APPLICABLE, rule,
                   "needs a free action on an odd sphere")
        return report

    center_ref = group_center(tg.group)
    center_names = set(center_ref.names())

    target = orbit_model if orbit_model is not None else orbit_space(tg)
    index, _ = target.gottlieb_entry(1)
    if index is None:
        report.add("oprea-center", target.name, 1, FAIL, rule,
                   "orbit model carries no degree-1 subgroup data")
        return report
    if not isinstance(target.pi1, CayleyGroup):
        report.add("oprea-center", target.name, 1, INDETERMINATE, rule,
                   "degree-1 subgroup not resolvable to elements")
        return report
    # Index 1: G_1 is all of pi_1, recorded or forced by a trivial pi_1.
    data = FULL if index == 1 else target.gottlieb[1]
    got = set(subgroup_ref(target.pi1, data).names())
    ok = got == center_names
    report.add("oprea-center", target.name, 1, PASS if ok else FAIL, rule,
               f"degree-1 subgroup {sorted(got)} vs center "
               f"{sorted(center_names)}")
    return report
