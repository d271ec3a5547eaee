"""Tower invariants, evaluation subgroups, and the index-product test.

The binomial multiplicities are checked against a Pascal triangle built
by literal addition, and the telescoping identity is verified by
literally summing the column, so no binomial implementation is trusted
twice.
"""

import math

import pytest

from thg import fox, rhodes
from thg.abelian import FgAbelian, INFINITY
from thg.errors import InsufficientDataError, InvalidInputError
from thg.fox import (fox_sequence_check, gottlieb_fox_crosscheck,
                     gottlieb_fox_invariants, gottlieb_index_product,
                     is_n_gottlieb, loop_tau_invariants, multiplicities,
                     recursive_tau_multiplicities,
                     recursive_tau_multiplicity, summary_layer_rank,
                     tau_invariants, whitehead_gottlieb_conflicts)
from thg.report import (CONFIRMED, EXPECTED_EXCEPTION, FAIL, INDETERMINATE,
                        PASS, VIOLATION)
from thg.spacecat import builtin_catalog, load_model
from thg.verdict import is_false, is_indeterminate, is_true

import json

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


def test_recursion_column_rejects_degree_zero():
    with pytest.raises(InvalidInputError):
        recursive_tau_multiplicities(0)


def test_deep_tower_layers_are_binomials():
    n = 600
    s = tau_invariants(BY_NAME["T3"], n)
    assert [(label, mult) for label, _, mult in s.layers] == [
        (f"pi{i}", math.comb(n - 1, i - 1)) for i in range(2, n + 1)]


def test_recursion_check_still_fires(monkeypatch):
    honest = recursive_tau_multiplicities

    def off_by_one(n):
        column = list(honest(n))
        column[n // 2] += 1
        return tuple(column)

    monkeypatch.setattr(fox, "recursive_tau_multiplicities", off_by_one)
    with pytest.raises(AssertionError, match="recursion"):
        tau_invariants(BY_NAME["T3"], 10)
    with pytest.raises(AssertionError, match="recursion"):
        rhodes.sigma_invariants(BY_NAME["t3-z2"], 10)


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
    assert [(l, g.describe(), m) for l, g, m in s.layers] == [
        ("pi2", "1", 3), ("pi3", "Z", 3), ("pi4", "Z/2", 1)]
    assert s.finite_order == INFINITY
    assert summary_layer_rank(s) == 3
    assert s.is_direct_product


def test_tau_of_projective_space():
    s = tau_invariants(BY_NAME["RP3"], 3)
    assert s.base_name_or_order == "Z/2"
    assert [(l, g.describe(), m) for l, g, m in s.layers] == [
        ("pi2", "1", 2), ("pi3", "Z", 1)]
    assert s.is_direct_product


def test_tau_of_aspherical_models():
    s = tau_invariants(BY_NAME["T3"], 5)
    assert s.base_name_or_order == "Z^3"
    assert all(g.describe() == "1" for _, g, _ in s.layers)
    assert s.is_direct_product
    s = tau_invariants(BY_NAME["S1"], 2)
    assert s.base_name_or_order == "Z"
    assert s.finite_order == INFINITY


def test_loop_tower_multiplicities():
    s = loop_tau_invariants(BY_NAME["S3"], 4)
    assert s.base_name_or_order == 1
    assert [(l, m) for l, _, m in s.layers] == [("pi2", 1), ("pi3", 2), ("pi4", 1)]
    assert s.is_direct_product


def test_fox_sequence_check_passes_catalog_wide():
    for x in SPACES:
        for n in range(2, x.truncation + 1):
            report = fox_sequence_check(x, n)
            assert report.passed, (x.name, n, report.failures())
            assert {e.status for e in report.entries} == {PASS}


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


# ---------------------------------------------------------------------------
# Evaluation subgroups


def test_gottlieb_fox_invariants_of_spherical_quotients():
    s = gottlieb_fox_invariants(BY_NAME["S3modZ4"], 3)
    assert [(l, g.describe(), m) for l, g, m in s.layers] == [
        ("G1", "Z/4", 1), ("G2", "1", 2), ("G3", "Z", 1)]
    assert s.base_name_or_order == 1
    s = gottlieb_fox_invariants(BY_NAME["RP3"], 1)
    assert [(l, g.describe(), m) for l, g, m in s.layers] == [("G1", "Z/2", 1)]


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


def test_crosscheck_two_sided_agreement():
    for x in SPACES:
        report = gottlieb_fox_crosscheck(x, x.truncation)
        assert report.passed, (x.name, report.failures())
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
