"""Rhodes groups, the G0 subgroup, and the implication audits."""

import dataclasses
import json

import pytest

from thg import cli, rhodes
from thg.abelian import FgAbelian, INFINITY
from thg.errors import BookkeepingError, InvalidInputError, UnsupportedError
from thg.fingroup import center, from_catalog, is_isomorphic
from thg.fox import tau_invariants
from thg.report import (CONFIRMED, EXPECTED_EXCEPTION, FAIL, INDETERMINATE,
                        NOT_APPLICABLE, PASS, VACUOUS, VIOLATION)
from thg.rhodes import (IN_G0, NOT_IN_G0, UNDETERMINED, aspherical_gottlieb_check,
                        classify, compute_g0, equivariant_gottlieb_audit,
                        gottlieb_rhodes_invariants, oprea_check,
                        rhodes_split_check, sigma1_group, sigma_invariants)
from thg.spacecat import (SpaceModel, TransformationModel, builtin_catalog,
                          load_model, orbit_space)
from thg.verdict import Indeterminate, is_false, is_indeterminate, is_true

MODELS = builtin_catalog()
BY_NAME = {m.name: m for m in MODELS}
ACTIONS = [m for m in MODELS if isinstance(m, TransformationModel)]


# ---------------------------------------------------------------------------
# G0


G0_ORDERS = {
    "rp3-z2z2": 4,   # recorded: rotations are isotopic to the identity
    "s2-z2": 1,      # antipodal map on an even sphere has degree -1
    "s3-q8": 8,      # fixed-point-free self-maps of odd spheres
    "s3-z4": 4,
    "s3xs3xs3-z2": 1,  # the swap moves degree-3 classes
    "s5-z2": 2,
    "t3-trivial": 1,
    "t3-z2": 1,      # inversion is visible on the fundamental group
}


def test_g0_orders_across_the_catalog():
    for name, want in G0_ORDERS.items():
        r = compute_g0(BY_NAME[name])
        assert r.fully_determined(), name
        assert r.subgroup is not None and r.subgroup.order == want, name


def test_g0_covers_group_verdicts():
    assert is_true(compute_g0(BY_NAME["s3-z4"]).covers_group())
    assert is_true(compute_g0(BY_NAME["s3-q8"]).covers_group())
    assert is_true(compute_g0(BY_NAME["rp3-z2z2"]).covers_group())
    assert is_false(compute_g0(BY_NAME["s2-z2"]).covers_group())
    assert is_false(compute_g0(BY_NAME["t3-z2"]).covers_group())
    assert is_false(compute_g0(BY_NAME["s3xs3xs3-z2"]).covers_group())


def test_g0_rules_are_reported_per_element():
    r = compute_g0(BY_NAME["s5-z2"])
    verdict, rule = r.per_element_verdict["t"]
    assert verdict == IN_G0 and "Lefschetz" in rule
    r = compute_g0(BY_NAME["s2-z2"])
    verdict, rule = r.per_element_verdict["t"]
    assert verdict == NOT_IN_G0
    r = compute_g0(BY_NAME["t3-z2"])
    verdict, rule = r.per_element_verdict["t"]
    assert verdict == NOT_IN_G0 and "degree 1" in rule


def test_g0_undetermined_when_no_rule_applies():
    space_doc = {
        "kind": "space", "name": "Y", "aspherical": False, "truncation": 2,
        "pi1": {"rank": 0, "torsion": [3]},
        "pi": {"2": {"rank": 1, "torsion": []}},
        "gottlieb": {}, "whitehead": "trivial", "pi1_action": "trivial",
    }
    doc = {
        "kind": "transformation", "space": space_doc,
        "group": {"catalog": "Z(2)"}, "free": True, "action": {},
    }
    tg = load_model(json.dumps(doc), name="y-z2")
    r = compute_g0(tg)
    assert not r.fully_determined()
    assert r.subgroup is None
    assert r.per_element_verdict["t"][0] == UNDETERMINED
    assert is_indeterminate(r.covers_group())
    assert isinstance(gottlieb_rhodes_invariants(tg, 2), Indeterminate)


# ---------------------------------------------------------------------------
# Sigma bookkeeping


def test_sigma_orders_and_ranks_match_the_covering_count():
    pairs = 0
    for tg in ACTIONS:
        for n in range(1, tg.space.truncation + 1):
            s = sigma_invariants(tg, n)
            t = tau_invariants(tg.space, n)
            assert s.finite_order == tg.group.order * t.finite_order, (tg.name, n)
            pairs += 1
    assert pairs >= 20


def test_sigma1_groups_of_spherical_quotients():
    assert is_isomorphic(sigma1_group(BY_NAME["s3-z4"]), from_catalog("Z(4)"))
    assert is_isomorphic(sigma1_group(BY_NAME["s3-q8"]), from_catalog("Q8"))
    assert is_isomorphic(sigma1_group(BY_NAME["s2-z2"]), from_catalog("Z2"))
    q8 = sigma1_group(BY_NAME["rp3-z2z2"])
    assert q8.order == 8 and not q8.is_abelian()
    assert is_isomorphic(q8, from_catalog("Q8"))


def test_sigma1_unsupported_for_infinite_fundamental_group():
    with pytest.raises(UnsupportedError):
        sigma1_group(BY_NAME["t3-z2"])


def test_rhodes_split_check_passes_catalog_wide():
    for tg in ACTIONS:
        top = tg.space.truncation
        report = rhodes_split_check(tg, top)
        assert report.passed, (tg.name, report.lines())
        assert all(e.status == PASS for e in report.entries)
        # The extension entries degree by degree, gsigma-order where G0 is
        # determined, then the splitting of sigma_n from n = 2.
        extension = (("sigma-order", "gsigma-order")
                     if compute_g0(tg).subgroup is not None else ("sigma-order",))
        assert [(e.check, e.target, e.n) for e in report.entries] == [
            *((check, tg.name, n) for n in range(1, top + 1) for check in extension),
            *((f"rhodes-sequence-{part}", tg.name, n) for n in range(2, top + 1)
              for part in ("layers", "rank", "order"))]


def test_rhodes_towers_need_a_free_action():
    doc = dict(BY_NAME["t3-z2"].raw, free=False)
    spaces = {m.name: m for m in MODELS if isinstance(m, SpaceModel)}
    tg = load_model(json.dumps(doc), name="t3-z2", resolver=spaces.__getitem__)
    assert not tg.free
    refusal = ("Rhodes towers are computed through the orbit space, which "
               "needs a free action")
    for call in (lambda: rhodes_split_check(tg, 2), lambda: sigma_invariants(tg, 1),
                 lambda: gottlieb_rhodes_invariants(tg, 1), lambda: classify(tg, 2)):
        with pytest.raises(UnsupportedError) as exc:
            call()
        assert str(exc.value) == refusal


# ---------------------------------------------------------------------------
# Evaluation subgroups of the Rhodes tower


def test_quaternion_gottlieb_rhodes_realization():
    r = gottlieb_rhodes_invariants(BY_NAME["rp3-z2z2"], 1)
    assert not isinstance(r, Indeterminate)
    assert r.summary.finite_order == 8
    assert r.g0.subgroup.order == 4
    assert r.realized is not None and r.realized.order == 8
    assert not r.realized.is_abelian()
    assert is_isomorphic(r.realized, from_catalog("Q8"))
    assert list(cli._layer_rows(r.summary)) == [
        ("G1", "Z/2", 1)]


def test_gottlieb_rhodes_order_is_gtau_times_g0():
    r = gottlieb_rhodes_invariants(BY_NAME["s3-q8"], 1)
    assert r.summary.finite_order == 8  # trivial Gtau_1, G0 = Q8
    assert r.realized is not None
    assert is_isomorphic(r.realized, from_catalog("Q8"))
    # The tower layers are evaluation subgroups of the total space (the
    # 3-sphere), so the deck group enters only through the G0 base.
    r = gottlieb_rhodes_invariants(BY_NAME["s3-z4"], 3)
    assert r.summary.finite_order == INFINITY
    assert r.g0.subgroup.order == 4
    assert list(cli._layer_rows(r.summary)) == [
        ("G1", "1", 1), ("G2", "1", 2), ("G3", "Z", 1)]


def test_classification_verdict_table():
    rep = classify(BY_NAME["s3-z4"], 4)
    for d in rep.per_degree:
        assert is_true(d.gottlieb.value) and is_true(d.gottlieb_fox.value)
        assert is_true(d.gottlieb_rhodes.value)
        assert is_true(d.equivariant_gottlieb.value)
    assert is_true(rep.space_level["gottlieb-rhodes"].value)

    rep = classify(BY_NAME["t3-z2"], 3)
    assert is_true(rep.space_level["gottlieb"].value)
    assert is_false(rep.space_level["gottlieb-rhodes"].value)

    rep = classify(BY_NAME["s3xs3xs3-z2"], 4)
    assert is_false(rep.space_level["gottlieb-rhodes"].value)
    # Equivariantly Gottlieb all the same: the deck group acts by maps
    # homotopic to the identity in every positive degree that matters.
    assert is_true(rep.space_level["equivariant-gottlieb"].value)
    assert rep.consistency.passed


def test_audit_has_no_violations_and_known_exceptions():
    exceptions = set()
    for tg in ACTIONS:
        cap = tg.space.truncation if not tg.space.aspherical else 4
        report = equivariant_gottlieb_audit(tg, cap)
        for e in report.entries:
            assert e.status != VIOLATION, (tg.name, e.line())
            assert e.status != FAIL, (tg.name, e.line())
            if e.status == EXPECTED_EXCEPTION:
                exceptions.add((tg.name, e.n))
    assert exceptions == {("s3xs3xs3-z2", 1), ("s3-q8", 1), ("s2-z2", 1)}


def test_audit_exception_entries_mark_the_boundary_degree():
    report = equivariant_gottlieb_audit(BY_NAME["s3xs3xs3-z2"], 2)
    boundary = [e for e in report.entries if e.status == EXPECTED_EXCEPTION]
    assert len(boundary) == 1
    assert boundary[0].n == 1
    assert "excludes" in boundary[0].detail


def test_aspherical_check_on_the_flat_quotient():
    report = aspherical_gottlieb_check(BY_NAME["t3-z2"], 3)
    assert report.passed
    evidence = [e for e in report.entries if e.check == "orbit-center"]
    assert len(evidence) == 1
    assert "Z (rank 1)" in evidence[0].detail
    verdicts = [e for e in report.entries if e.check == "aspherical-equivalence"]
    assert verdicts and all(e.status == PASS for e in verdicts)

    report = aspherical_gottlieb_check(BY_NAME["t3-trivial"], 3)
    assert report.passed
    evidence = [e for e in report.entries if e.check == "orbit-center"]
    assert "Z^3 (rank 3)" in evidence[0].detail

    report = aspherical_gottlieb_check(BY_NAME["s3-z4"], 3)
    assert all(e.status == NOT_APPLICABLE for e in report.entries)


def test_aspherical_rank_agreement():
    # The quotient's fundamental group keeps the free rank of the torus.
    orbit = orbit_space(BY_NAME["t3-z2"])
    assert orbit.pi1.rank == BY_NAME["T3"].pi1.rank == 3


def test_oprea_check_with_recorded_quotients():
    report = oprea_check(BY_NAME["s3-z4"], BY_NAME["S3modZ4"])
    assert report.passed and any(e.status == PASS for e in report.entries)
    report = oprea_check(BY_NAME["s3-q8"], BY_NAME["S3modQ8"])
    assert report.passed and any(e.status == PASS for e in report.entries)
    report = oprea_check(BY_NAME["s5-z2"])  # derived orbit route
    assert report.passed and any(e.status == PASS for e in report.entries)
    report = oprea_check(BY_NAME["s2-z2"])  # even sphere: out of scope
    assert all(e.status == NOT_APPLICABLE for e in report.entries)


def _lens_quotient(**changes):
    """S3modZ4 with its document edited."""
    return load_model(json.dumps(dict(BY_NAME["S3modZ4"].raw, **changes)))


def test_oprea_check_grades_a_quotient_it_cannot_compare():
    rule = ("the degree-1 evaluation subgroup of an odd-sphere quotient "
            "is the center of the acting group (Oprea)")
    recorded = BY_NAME["S3modZ4"].raw["gottlieb"]
    unrecorded = _lens_quotient(
        gottlieb={k: v for k, v in recorded.items() if k != "1"})
    unlisted = _lens_quotient(pi1={"rank": 0, "torsion": [4]})
    for quotient, status, detail in (
            (unrecorded, FAIL, "orbit model carries no degree-1 subgroup data"),
            (unlisted, INDETERMINATE, "degree-1 subgroup not resolvable to elements")):
        entries = oprea_check(BY_NAME["s3-z4"], quotient).entries
        assert [(e.check, e.target, e.n, e.status, e.rule, e.detail)
                for e in entries] == [
            ("oprea-center", "S3modZ4", 1, status, rule, detail)]


def test_g0_even_sphere_rule_without_a_recorded_action():
    # With no action entry the antipodal map induces the identity by
    # convention, so only the Lefschetz rule for even spheres decides it.
    doc = dict(BY_NAME["s2-z2"].raw, action={})
    tg = load_model(json.dumps(doc), name="s2-z2", resolver=BY_NAME.__getitem__)
    r = compute_g0(tg)
    assert r.per_element_verdict["t"] == (
        NOT_IN_G0, "fixed-point-free self-map of an even sphere has degree "
                   "minus one")
    assert r.subgroup is not None and r.subgroup.order == 1


def test_realized_gsigma1_is_checked_against_the_bookkeeping(monkeypatch):
    honest = rhodes.gottlieb_fox_invariants

    def with_z2(x, n):
        # One Z/2 layer more than the space has: the summary derived from
        # this one must count it, 8 * 2, against the realized Q8.
        s = honest(x, n)
        return dataclasses.replace(s, groups=s.groups + (FgAbelian(0, (2,)),),
                                   mults=s.mults + (1,))

    monkeypatch.setattr(rhodes, "gottlieb_fox_invariants", with_z2)
    with pytest.raises(BookkeepingError) as err:
        gottlieb_rhodes_invariants(BY_NAME["s3-q8"], 1)
    assert str(err.value) == (
        "G sigma_1(s3-q8): realized order 8 vs bookkeeping 16")


def test_degree_one_subgroup_equals_center_of_deck_group():
    # Recorded evaluation subgroups of the space forms against the
    # centers of their deck groups, element by element.
    q8 = from_catalog("Q8")
    want = sorted(center(q8).names())
    got = BY_NAME["S3modQ8"].gottlieb[1]
    assert sorted(got.elements) == want == ["-1", "1"]
    z4 = from_catalog("Z(4)")
    assert center(z4).order == 4  # abelian: the center is everything
    assert BY_NAME["S3modZ4"].gottlieb[1].kind == "full"


def test_sigma_of_nontrivial_base_keeps_the_pi1_label():
    s = sigma_invariants(BY_NAME["rp3-z2z2"], 2)
    assert s.base_name_or_order == "finite group of order 8"
    assert s.finite_order == 4 * tau_invariants(BY_NAME["RP3"], 2).finite_order
