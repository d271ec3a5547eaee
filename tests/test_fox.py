"""Tower invariants, evaluation subgroups, and the index-product test.

The binomial multiplicities are checked against a Pascal triangle built
by literal addition, and the telescoping identity is verified by
literally summing the column, so no binomial implementation is trusted
twice.
"""

import dataclasses
import io
import json
import math
import tempfile

import pytest

from thg import cli, fox, rhodes, spacecat
from thg.abelian import FgAbelian, INFINITY
from thg.errors import (BookkeepingError, InsufficientDataError,
                        InvalidInputError)
from thg.fox import (fox_sequence_check, gottlieb_fox_crosscheck,
                     gottlieb_fox_invariants, gottlieb_index_product,
                     is_n_gottlieb, loop_tau_invariants, multiplicities,
                     recursive_tau_multiplicities,
                     recursive_tau_multiplicity, summary_layer_rank,
                     tau_invariants, whitehead_gottlieb_conflicts)
from thg.report import (CONFIRMED, EXPECTED_EXCEPTION, FAIL, INDETERMINATE,
                        PASS, VIOLATION)
from thg.spacecat import builtin_catalog, load_model
from thg.tower import TowerSummary
from thg.verdict import is_false, is_indeterminate, is_true

MODELS = builtin_catalog()
BY_NAME = {m.name: m for m in MODELS}
SPACES = [m for m in MODELS if hasattr(m, "truncation") and not hasattr(m, "group")]


# ---------------------------------------------------------------------------
# Multiplicity calculus against a hand-built Pascal triangle


def pascal(limit):
    tri = [[1]]
    for n in range(1, limit + 1):
        prev = tri[-1]
        tri.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return tri


TRI = pascal(62)


def choose(a, b):
    if a < 0 or b < 0 or b > a:
        return 0
    return TRI[a][b]


def test_multiplicities_match_pascal_triangle():
    for n in range(1, 31):
        for i in range(1, n + 1):
            t = multiplicities(n, i)
            assert t.alpha == choose(n - 2, i - 2), (n, i)
            assert t.beta == choose(n - 1, i - 2), (n, i)
            assert t.gamma == choose(n - 1, i - 1), (n, i)


def test_pascal_addition_identity_by_direct_summation():
    for n in range(1, 31):
        for i in range(1, n + 1):
            t = multiplicities(n, i)
            assert t.beta + t.gamma == choose(n, i - 1), (n, i)


def test_telescoping_identity_by_direct_summation():
    for n in range(1, 61):
        column = recursive_tau_multiplicities(n)
        assert len(column) == n + 1 and column[0] == 0
        for i in range(1, n + 1):
            total = 0
            for m in range(2, n + 1):
                total += choose(m - 2, i - 2)
            if i == 1:
                total = 1  # the fundamental group occurs once
            assert total == multiplicities(n, i).gamma, (n, i)
            assert recursive_tau_multiplicity(n, i) == total, (n, i)
            assert column[i] == total, (n, i)


def test_the_stepped_column_survives_a_walk_in_any_order(monkeypatch):
    # Each answer must equal a column walked afresh from level 2 and the
    # closed form, whichever level the walk stood at before.
    for n in (30, 7, 31, 1, 2, 45, 44):
        stepped = recursive_tau_multiplicities(n)
        with monkeypatch.context() as m:
            m.setattr(fox, "_column", fox._COLUMN_START)
            fresh = recursive_tau_multiplicities(n)
        assert stepped == fresh == (0, *(math.comb(n - 1, i - 1)
                                         for i in range(1, n + 1))), n


def _plain_walk(levels):
    """The column at each of levels, walked one level at a time from
    level 2 by Pascal's rule on plain tuples: the loop without lanes."""
    alpha, total, seen = [0, 0, 1], [0, 1, 1], {}
    for level in range(2, max(levels) + 1):
        if level > 2:
            alpha = [a + b for a, b in zip(alpha + [0], [0] + alpha)]
            total = [a + b for a, b in zip(total + [0], alpha)]
        if level in levels:
            seen[level] = tuple(total)
    return seen


def _closed_form(n):
    """(level, alpha(n, .), column) as the walk must leave them at n."""
    return (n, (0, 0, *(math.comb(n - 2, i - 2) for i in range(2, n + 1))),
            (0, *(math.comb(n - 1, i - 1) for i in range(1, n + 1))))


# A fresh walk to 17 is 15 levels, one short of a lane jump, and 1025 is
# past the lane cap; at 64 and 128 a lane outgrows 64 and 128 bits.
LANE_DEGREES = (17, 18, 63, 64, 65, 127, 128, 129, 600, 1023, 1024, 1025)


def test_packed_lanes_match_the_plain_walk_and_math_comb(monkeypatch):
    plain = _plain_walk(LANE_DEGREES)
    jumps = []
    honest = fox._walk_in_lanes

    def counted(level, alpha, total, n):
        jumps.append((level, n))
        return honest(level, alpha, total, n)
    monkeypatch.setattr(fox, "_walk_in_lanes", counted)
    for n in LANE_DEGREES:
        monkeypatch.setattr(fox, "_column", fox._COLUMN_START)
        assert recursive_tau_multiplicities(n) == plain[n], n
        assert fox._column == _closed_form(n), n
    assert jumps == [(2, n) for n in LANE_DEGREES if 18 <= n <= 1024]


def test_walks_mixing_jumps_and_single_steps_stay_exact(monkeypatch):
    monkeypatch.setattr(fox, "_column", fox._COLUMN_START)
    # Jumps that take lanes, steps on from a column they left, and
    # restarts below it.
    for n in (600, 601, 40, 1024, 1025, 17, 16, 33, 34, 70, 5, 200, 1100):
        assert recursive_tau_multiplicities(n) == _closed_form(n)[2], n
        assert fox._column == _closed_form(n), n


def test_multiplicative_rows_match_math_comb():
    for a in [*range(301), 2000]:
        assert fox._binomial_row(a) == tuple(
            math.comb(a, k) for k in range(a + 1)), a


def test_recursion_column_rejects_degree_zero():
    with pytest.raises(InvalidInputError):
        recursive_tau_multiplicities(0)


def test_deep_tower_layers_are_binomials():
    n = 600
    s = tau_invariants(BY_NAME["T3"], n)
    assert [(label, mult) for label, _, mult in cli._layer_rows(s)] == [
        (f"pi{i}", math.comb(n - 1, i - 1)) for i in range(2, n + 1)]


def test_recursion_check_still_fires(monkeypatch):
    honest = recursive_tau_multiplicities

    def off_by_one(n):
        column = list(honest(n))
        column[n // 2] += 1
        return tuple(column)

    monkeypatch.setattr(fox, "recursive_tau_multiplicities", off_by_one)
    with pytest.raises(BookkeepingError, match="recursion"):
        tau_invariants(BY_NAME["T3"], 10)
    with pytest.raises(BookkeepingError, match="recursion"):
        rhodes.sigma_invariants(BY_NAME["t3-z2"], 10)


def test_tau_summaries_are_kept_per_model_not_per_name():
    # A catalog-dir model may carry a built-in's name; it must get its own
    # tower, and the built-in must keep its own, whatever was asked first.
    builtin = BY_NAME["T3"]
    other = load_model(json.dumps(dict(builtin.raw,
                                       pi1={"rank": 2, "torsion": []})))
    assert other.name == builtin.name
    for n in (5, 6, 5):
        assert tau_invariants(builtin, n).base_name_or_order == "Z^3"
        assert tau_invariants(other, n).base_name_or_order == "Z^2"
    # Each model gets its own Gottlieb degree table, built once.
    assert builtin.gottlieb_table == {1: (1, FgAbelian(3))}
    assert other.gottlieb_table == {1: (1, FgAbelian(2))}
    assert builtin.gottlieb_table is builtin.gottlieb_table
    assert other.gottlieb_table is other.gottlieb_table


def test_degree_validation():
    s3 = BY_NAME["S3"]
    with pytest.raises(InvalidInputError):
        tau_invariants(s3, 0)
    with pytest.raises(InsufficientDataError):
        tau_invariants(s3, 9)
    # Aspherical models answer at any degree.
    t3 = BY_NAME["T3"]
    assert tau_invariants(t3, 30).finite_order == INFINITY


# ---------------------------------------------------------------------------
# Tower invariants on the catalog


def test_tau_of_the_three_sphere():
    s = tau_invariants(BY_NAME["S3"], 4)
    assert s.base_name_or_order == "1"
    assert list(cli._layer_rows(s)) == [
        ("pi2", "1", 3), ("pi3", "Z", 3), ("pi4", "Z/2", 1)]
    assert s.finite_order == INFINITY
    assert summary_layer_rank(s) == 3
    assert s.is_direct_product


def test_tau_of_projective_space():
    s = tau_invariants(BY_NAME["RP3"], 3)
    assert s.base_name_or_order == "Z/2"
    assert list(cli._layer_rows(s)) == [
        ("pi2", "1", 2), ("pi3", "Z", 1)]
    assert s.is_direct_product


def test_tau_of_aspherical_models():
    s = tau_invariants(BY_NAME["T3"], 5)
    assert s.base_name_or_order == "Z^3"
    assert all(name == "1" for _, name, _ in cli._layer_rows(s))
    assert s.is_direct_product
    s = tau_invariants(BY_NAME["S1"], 2)
    assert s.base_name_or_order == "Z"
    assert s.finite_order == INFINITY


def test_loop_tower_multiplicities():
    s = loop_tau_invariants(BY_NAME["S3"], 4)
    assert s.base_name_or_order == 1
    assert [(l, m) for l, _, m in cli._layer_rows(s)] == [("pi2", 1), ("pi3", 2), ("pi4", 1)]
    assert s.is_direct_product


def test_fox_sequence_check_passes_catalog_wide():
    for x in SPACES:
        report = fox_sequence_check(x, x.truncation)
        assert report.passed, (x.name, report.lines())
        assert all(e.status == PASS for e in report.entries)
        assert [e.n for e in report.entries] == [
            n for n in range(2, x.truncation + 1) for _ in range(3)]


def _fault_the_splitting(monkeypatch, n, whole=None, quot=None, ker=None):
    """fox_sequence_check at degree n reads edited summaries: whole for
    tau_n, quot for every lower tau, ker for every loop-space tower."""
    honest_tau, honest_loop = fox.tau_invariants, fox.loop_tau_invariants

    def tau(x, m):
        edit = whole if m == n else quot
        return edit(honest_tau(x, m)) if edit else honest_tau(x, m)

    def loop(x, m):
        return ker(honest_loop(x, m)) if ker else honest_loop(x, m)
    monkeypatch.setattr(fox, "tau_invariants", tau)
    monkeypatch.setattr(fox, "loop_tau_invariants", loop)


def _rebase(base):
    return lambda s: dataclasses.replace(s, base_name_or_order=base)


def _edit_layer(label, group=None, extra=0):
    def edit(s):
        hits = [lab == label for lab, _, _ in cli._layer_rows(s)]
        return dataclasses.replace(
            s, groups=tuple(group if hit and group else grp
                            for hit, grp in zip(hits, s.groups)),
            mults=tuple(mult + extra if hit else mult
                        for hit, mult in zip(hits, s.mults)))
    return edit


def _extra_top_layer(s):
    # A trivial layer one degree past the tower's top.
    return dataclasses.replace(s, groups=s.groups + (FgAbelian(0),), mults=s.mults + (1,))


def _drop_top_layer(s):
    return dataclasses.replace(s, groups=s.groups[:-1], mults=s.mults[:-1])


# Every degree that any of the three towers holds is compared: a degree
# that only the kernel reaches, or that the whole tower lacks, is a
# disagreement on the group.
SPLIT_FAULTS = {
    "kernel past n": ({"ker": _extra_top_layer},
                      "pi12: towers disagree on the group"),
    "whole short": ({"whole": _drop_top_layer},
                    "pi11: towers disagree on the group"),
    "changed base": ({"quot": _rebase("Z^2")},
                     "quotient tower changed the base group"),
    "kernel base": ({"ker": _rebase("Z")},
                    "kernel tower has a nontrivial base"),
    "group": ({"quot": _edit_layer("pi10", group=FgAbelian(1))},
              "pi10: towers disagree on the group"),
    # At n = 11: C(10, 1) + 1 copies of pi2 against C(9, 0) + C(9, 1).
    "multiplicity": ({"whole": _edit_layer("pi2", extra=1)},
                     "pi2: multiplicity 11 != 1 + 9"),
}


def _layers_at_11():
    """The n = 11 layers entry of a walk through degree 11 on T3."""
    [entry] = [e for e in fox_sequence_check(BY_NAME["T3"], 11).entries
               if (e.check, e.n) == ("fox-sequence-layers", 11)]
    return entry


@pytest.mark.parametrize("fault", SPLIT_FAULTS)
def test_each_reconciliation_fault_is_named(monkeypatch, fault):
    edits, detail = SPLIT_FAULTS[fault]
    _fault_the_splitting(monkeypatch, 11, **edits)
    entry = _layers_at_11()
    assert (entry.check, entry.status, entry.detail) == (
        "fox-sequence-layers", FAIL, detail)


def test_reconciliation_faults_are_named_in_label_order(monkeypatch):
    # Labels sort as strings, so pi10 comes before pi2.
    regroup, rebase = SPLIT_FAULTS["group"][0]["quot"], _rebase("Z^2")
    _fault_the_splitting(monkeypatch, 11, whole=_edit_layer("pi2", extra=1),
                         quot=lambda s: regroup(rebase(s)), ker=_rebase("Z"))
    entry = _layers_at_11()
    assert entry.status == FAIL
    assert entry.detail == "; ".join(
        SPLIT_FAULTS[fault][1] for fault in
        ("changed base", "kernel base", "group", "multiplicity"))


def test_whitehead_conflict_detection():
    doc = {
        "kind": "space", "name": "Y", "aspherical": False, "truncation": 3,
        "pi1": {"rank": 0, "torsion": []},
        "pi": {"2": {"rank": 1, "torsion": []},
               "3": {"rank": 1, "torsion": []}},
        "gottlieb": {"2": "full"},
        "whitehead": {"2,2": [[[2]]]},
        "pi1_action": "trivial",
    }
    y = load_model(json.dumps(doc))
    conflicts = whitehead_gottlieb_conflicts(y)
    assert len(conflicts) == 1 and "2" in conflicts[0]
    with pytest.raises(InvalidInputError):
        tau_invariants(y, 2)
    # The twin model with the honest index-two subgroup is consistent:
    # [2a, b] = 2[a, b] needs a *full* evaluation subgroup to conflict.
    doc["gottlieb"] = {"2": {"generators": [[0]]}}
    clean = load_model(json.dumps(doc))
    assert whitehead_gottlieb_conflicts(clean) == []
    assert not tau_invariants(clean, 2).is_direct_product


def test_whitehead_conflict_on_the_second_degree_of_a_pairing():
    # (2,3) pairs pi_2 with pi_3: a degree-3 Gottlieb generator is
    # checked against the second slot of the table.
    doc = {
        "kind": "space", "name": "Y", "aspherical": False, "truncation": 4,
        "pi1": {"rank": 0, "torsion": []},
        "pi": {str(k): {"rank": 1, "torsion": []} for k in (2, 3, 4)},
        "gottlieb": {"3": {"generators": [[1]]}},
        "whitehead": {"2,3": [[[1]]]},
        "pi1_action": "trivial",
    }
    y = load_model(json.dumps(doc))
    assert whitehead_gottlieb_conflicts(y) == [
        "Y: pairing (2,3) is nonzero on a degree-3 Gottlieb generator"]
    with pytest.raises(InvalidInputError, match="inconsistent model"):
        tau_invariants(y, 2)
    doc["whitehead"] = {"2,3": [[[0]]]}
    assert whitehead_gottlieb_conflicts(load_model(json.dumps(doc))) == []


# ---------------------------------------------------------------------------
# Evaluation subgroups


def test_gottlieb_fox_invariants_of_spherical_quotients():
    s = gottlieb_fox_invariants(BY_NAME["S3modZ4"], 3)
    assert list(cli._layer_rows(s)) == [
        ("G1", "Z/4", 1), ("G2", "1", 2), ("G3", "Z", 1)]
    assert s.base_name_or_order == 1
    s = gottlieb_fox_invariants(BY_NAME["RP3"], 1)
    assert list(cli._layer_rows(s)) == [("G1", "Z/2", 1)]


def test_is_n_gottlieb_verdicts():
    assert is_true(is_n_gottlieb(BY_NAME["S3"], 3))
    assert is_true(is_n_gottlieb(BY_NAME["S3"], 1))  # trivial pi1
    assert is_true(is_n_gottlieb(BY_NAME["T3"], 1))
    assert is_true(is_n_gottlieb(BY_NAME["S3modZ4"], 1))
    assert is_false(is_n_gottlieb(BY_NAME["S3modQ8"], 1))
    assert is_false(is_n_gottlieb(BY_NAME["S2"], 2))
    assert is_false(is_n_gottlieb(BY_NAME["S5"], 5))


def test_degree_one_rules_without_recorded_data():
    # Non-abelian fundamental group: centrality forces a proper subgroup.
    doc = {
        "kind": "space", "name": "W", "aspherical": False, "truncation": 2,
        "pi1": {"catalog": "Q8"},
        "pi": {"2": {"rank": 0, "torsion": []}},
        "gottlieb": {}, "whitehead": "trivial", "pi1_action": "trivial",
    }
    w = load_model(json.dumps(doc))
    assert is_false(is_n_gottlieb(w, 1))
    # Abelian fundamental group, trivial action, no data: undecided.
    doc["pi1"] = {"rank": 0, "torsion": [4]}
    w = load_model(json.dumps(doc))
    assert is_indeterminate(is_n_gottlieb(w, 1))


def test_gottlieb_index_product():
    assert gottlieb_index_product(BY_NAME["S3modQ8"], 1) == 4
    assert gottlieb_index_product(BY_NAME["S3modQ8"], 3) == 4
    assert gottlieb_index_product(BY_NAME["S3modZ4"], 3) == 1
    assert gottlieb_index_product(BY_NAME["S5"], 5) == 2
    assert gottlieb_index_product(BY_NAME["S2"], 2) == INFINITY


# A loaded model whose G_2 and G_4 are missing, and a degree-1 subgroup
# written "full" on a non-abelian fundamental group.
GAPPED = {
    "kind": "space", "name": "Gapped", "aspherical": False, "truncation": 5,
    "pi1": {"rank": 0, "torsion": []},
    "pi": {str(k): {"rank": 1, "torsion": []} for k in range(2, 6)},
    "gottlieb": {"3": "full", "5": {"generators": [[3]]}},
    "whitehead": "trivial", "pi1_action": "trivial",
}
FULL_Q8 = {
    "kind": "space", "name": "FullQ8", "aspherical": False, "truncation": 2,
    "pi1": {"catalog": "Q8"}, "pi": {"2": {"rank": 0, "torsion": []}},
    "gottlieb": {"1": "full"}, "whitehead": "trivial", "pi1_action": "trivial",
}


def test_indeterminate_reasons_name_the_first_faulty_degree():
    x = load_model(json.dumps(GAPPED))
    missing = "Gapped has no evaluation-subgroup data at degree {}"
    assert is_true(is_n_gottlieb(x, 3))
    assert is_false(is_n_gottlieb(x, 5))
    for n in (2, 3, 4, 5):
        assert gottlieb_index_product(x, n).reason == missing.format(2)
        assert gottlieb_fox_invariants(x, n).reason == missing.format(2)
    for n in (2, 4):
        assert is_n_gottlieb(x, n).reason == missing.format(n)
    assert gottlieb_index_product(x, 1) == 1
    # The gaps at degrees 2 and 4 lie past n = 1.
    assert isinstance(gottlieb_fox_invariants(x, 1), TowerSummary)
    code, out = _cli("gtau", "Gapped", "--n", "4", doc=GAPPED)
    assert code == 0 and json.loads(out)["results"] == [
        {"n": 4, "indeterminate": missing.format(2)}]

    q8 = load_model(json.dumps(FULL_Q8))
    no_abelian = ("degree-1 evaluation subgroup of FullQ8 has no abelian "
                  "presentation")
    assert is_true(is_n_gottlieb(q8, 1))
    assert gottlieb_index_product(q8, 2) == 1
    for n in (1, 2):
        assert gottlieb_fox_invariants(q8, n).reason == no_abelian
    code, out = _cli("gtau", "FullQ8", "--max-n", "2", doc=FULL_Q8)
    assert code == 0 and json.loads(out)["results"] == [
        {"n": 1, "indeterminate": no_abelian},
        {"n": 2, "indeterminate": no_abelian}]


def _cli(*argv, doc):
    """Exit code and JSON stdout of thg over a catalog of doc alone."""
    with tempfile.TemporaryDirectory() as root:
        with open(f"{root}/{doc['name'].lower()}.json", "w") as fh:
            json.dump(doc, fh)
        out = io.StringIO()
        code = cli.run([*argv, "--catalog-dir", root, "--format", "json"],
                       out=out, err=io.StringIO())
    return code, out.getvalue()


def test_each_nontrivial_degree_is_resolved_once_per_model(monkeypatch):
    counts = {"subgroup_index_in": 0, "subgroup_structure_in": 0}
    for name in counts:
        honest = getattr(spacecat, name)

        def counted(*args, _name=name, _honest=honest):
            counts[_name] += 1
            return _honest(*args)
        # Every module that binds the name, so that a reader going round
        # the table is counted too.
        for module in (spacecat, fox, rhodes, cli):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    fresh = {m.name: m for m in builtin_catalog()}
    t3, s3, tg = fresh["T3"], fresh["S3"], fresh["t3-z2"]
    assert tg.space is t3
    orbit = spacecat.orbit_space(tg)
    assert gottlieb_fox_crosscheck(t3, 200).passed
    rhodes.classify(tg, 60)
    assert gottlieb_fox_invariants(s3, 6).finite_order == INFINITY
    # T3 and its orbit space carry data in degree 1 only; S3 in its
    # nontrivial degrees.
    nontrivial = sum(not m.pi_at(i).is_trivial()
                     for m in (t3, orbit, s3)
                     for i in range(1, (1 if m.aspherical else m.truncation) + 1))
    assert 0 < counts["subgroup_index_in"] <= nontrivial, counts
    assert 0 < counts["subgroup_structure_in"] <= nontrivial, counts


def test_a_walk_of_splitting_checks_never_steps_the_column_back(monkeypatch):
    asked = []
    honest = recursive_tau_multiplicities

    def recorded(n):
        asked.append(n)
        return honest(n)
    monkeypatch.setattr(fox, "recursive_tau_multiplicities", recorded)
    x = load_model(json.dumps(BY_NAME["T3"].raw))
    assert fox_sequence_check(x, 60).passed
    assert asked == list(range(1, 61)), asked


def test_crosscheck_two_sided_agreement():
    for x in SPACES:
        report = gottlieb_fox_crosscheck(x, x.truncation)
        assert report.passed, (x.name, report.lines())
        assert all(e.status in (PASS, INDETERMINATE) for e in report.entries)
        assert any(e.status == PASS for e in report.entries), x.name
    # Both sides false at degree 1 for the quaternionic quotient, and
    # the agreement still counts: the index product names the defect.
    report = gottlieb_fox_crosscheck(BY_NAME["S3modQ8"], 1)
    entry = report.entries[0]
    assert entry.status == PASS and "4" in entry.detail


def test_crosscheck_has_no_indeterminate_rows_on_catalog_spaces():
    for x in SPACES:
        report = gottlieb_fox_crosscheck(x, x.truncation)
        assert {e.status for e in report.entries} == {PASS}, x.name
