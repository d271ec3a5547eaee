"""Acceptance gate: ten package-level guarantees, one verdict line each.

Each test prints a [PASS]/[FAIL] line on the real stdout (capture is
suspended for the write) and then asserts, so the printed ledger and the
pytest outcome cannot drift apart.  All comparisons are exact; nothing
here tolerates approximation.
"""

import json
import pathlib
import shutil

import pytest

from thg.abelian import (INFINITY, FgAbelian, IntMatrix, cokernel,
                         snf_diagonal, subgroup_index)
from thg.cli import run
from thg.errors import ThgError
from thg.fingroup import center, from_catalog, is_isomorphic
from thg.fox import (fox_sequence_check, gottlieb_fox_crosscheck,
                     gottlieb_fox_invariants, gottlieb_index_product,
                     is_n_gottlieb, multiplicities, tau_invariants)
from thg.report import EXPECTED_EXCEPTION, FAIL, PASS, VIOLATION
from thg.rhodes import (compute_g0, equivariant_gottlieb_audit,
                        aspherical_gottlieb_check, gottlieb_rhodes_invariants,
                        rhodes_split_check, sigma_invariants, sigma1_group)
from thg.spacecat import SpaceModel, TransformationModel, builtin_catalog
from thg.tower import make_virtabelian, to_cayley
from thg.verdict import is_false

from strategies import (SAMPLE, divisors_by_minors, enumerate_quotient,
                        order_multiset, predicted_order_multiset,
                        echelon_basis, reduce_mod)

MODELS = builtin_catalog()
BY_NAME = {m.name: m for m in MODELS}
SPACES = [m for m in MODELS if isinstance(m, SpaceModel)]
ACTIONS = [m for m in MODELS if isinstance(m, TransformationModel)]
CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"


@pytest.fixture
def verdict(capfd):
    def _verdict(label, ok, detail=""):
        with capfd.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)
        assert ok, f"{label}: {detail}"

    return _verdict


def test_criterion_1_quaternion_golden(verdict):
    tg = BY_NAME["rp3-z2z2"]
    problems = []
    s1 = sigma1_group(tg)
    if not is_isomorphic(s1, from_catalog("Q8")):
        problems.append("sigma1 is not the quaternion group")
    r = gottlieb_rhodes_invariants(tg, 1)
    if isinstance(r, ThgError) or r.finite_order != 8:
        problems.append("Gsigma1 order is not 8")
    elif r.realized is None or r.realized.order != 8 or r.realized.is_abelian():
        problems.append("Gsigma1 does not realize as a non-abelian group of order 8")
    gt = gottlieb_fox_invariants(tg.space, 1)
    if [(g.describe(), m) for _, g, m in gt.layers] != [("Z/2", 1)]:
        problems.append("Gtau1 is not Z/2")
    g0 = compute_g0(tg)
    if g0.subgroup is None or g0.subgroup.order != tg.group.order:
        problems.append("G0 is not all of the acting group")
    verdict("criterion 1: quaternion golden (sigma1, Gsigma1, Gtau1, G0)",
             not problems, "; ".join(problems))


def test_criterion_2_extension_bookkeeping(verdict):
    pairs = 0
    bad = []
    for tg in ACTIONS:
        for n in range(1, tg.space.truncation + 1):
            s = sigma_invariants(tg, n)
            t = tau_invariants(tg.space, n)
            orbit_rank = sum(g.rank * m for _, g, m in s.layers)
            tau_rank = sum(g.rank * m for _, g, m in t.layers)
            if s.finite_order != tg.group.order * t.finite_order:
                bad.append((tg.name, n, "order"))
            if orbit_rank != tau_rank:
                bad.append((tg.name, n, "rank"))
            pairs += 1
    verdict(f"criterion 2: sigma order/rank bookkeeping on {pairs} pairs "
             "(>= 20 required)", pairs >= 20 and not bad, str(bad))


def test_criterion_3_split_sequence_suites(verdict):
    bad = []
    for x in SPACES:
        for n in range(2, x.truncation + 1):
            rep = fox_sequence_check(x, n)
            if not rep.passed:
                bad.append((x.name, n, rep.lines()))
    for tg in ACTIONS:
        for n in range(2, tg.space.truncation + 1):
            rep = rhodes_split_check(tg, n)
            if not rep.passed:
                bad.append((tg.name, n, rep.lines()))
    verdict("criterion 3: fox and rhodes split sequences across the catalog",
             not bad, str(bad))


def test_criterion_4_multiplicity_calculus(verdict):
    tri = [[1]]
    for n in range(1, 31):
        prev = tri[-1]
        tri.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])

    def choose(a, b):
        return tri[a][b] if 0 <= b <= a else 0

    ok = True
    for n in range(1, 31):
        for i in range(1, n + 1):
            t = multiplicities(n, i)
            if t.beta + t.gamma != choose(n, i - 1):
                ok = False
            total = sum(choose(m - 2, i - 2) for m in range(2, n + 1))
            if i == 1:
                total = 1
            if total != t.gamma:
                ok = False
    verdict("criterion 4: Pascal and telescoping identities, n <= 30, "
             "by direct summation", ok)


def test_criterion_5_two_sided_equivalence(verdict):
    bad = []
    for x in SPACES:
        rep = gottlieb_fox_crosscheck(x, x.truncation)
        if not rep.passed or any(e.status != PASS for e in rep.entries):
            bad.append((x.name, [e.line() for e in rep.entries
                                 if e.status != PASS]))
    both_false = (is_false(is_n_gottlieb(BY_NAME["S3modQ8"], 1))
                  and gottlieb_index_product(BY_NAME["S3modQ8"], 1) == 4)
    verdict("criterion 5: n-Gottlieb iff index product 1 on every space; "
             "S3/Q8 fails both ways at n=1 with index 4",
             not bad and both_false, str(bad))


def test_criterion_6_g0_corpus(verdict):
    want = {"s3-z4": 4, "s3-q8": 8, "s5-z2": 2,
            "s2-z2": 1, "t3-z2": 1, "s3xs3xs3-z2": 1}
    got = {name: compute_g0(BY_NAME[name]).subgroup.order for name in want}
    verdict("criterion 6: G0 corpus (odd spheres full, antipodal and "
             "flat/product cases trivial)", got == want, f"{got} != {want}")


def test_criterion_7_implication_audits(verdict):
    violations = []
    exceptions = set()
    for tg in ACTIONS:
        cap = 4 if tg.space.aspherical else tg.space.truncation
        rep = equivariant_gottlieb_audit(tg, cap)
        for e in rep.entries:
            if e.status in (VIOLATION, FAIL):
                violations.append((tg.name, e.line()))
            if e.status == EXPECTED_EXCEPTION:
                exceptions.add((tg.name, e.n))
    asph = aspherical_gottlieb_check(BY_NAME["t3-z2"], 3)
    evidence = [e for e in asph.entries if e.check == "orbit-center"]
    center_ok = (asph.passed and len(evidence) == 1
                 and "Z (rank 1)" in evidence[0].detail)
    ok = (not violations
          and exceptions == {("s3xs3xs3-z2", 1), ("s3-q8", 1), ("s2-z2", 1)}
          and center_ok)
    verdict("criterion 7: audits clean catalog-wide; degree-1 exceptions "
             "documented; flat quotient center Z (rank 1)",
             ok, f"violations={violations} exceptions={exceptions}")


def test_criterion_8_algebra_kernel_oracles(verdict):
    checked = 0
    bad = []
    for entries in SAMPLE:
        if snf_diagonal(IntMatrix.from_rows(entries)) != divisors_by_minors(entries):
            bad.append(("snf", entries))
        n = len(entries[0])
        quo = cokernel(n, [], IntMatrix.from_rows(entries))
        idx = subgroup_index(FgAbelian(n), IntMatrix.from_rows(entries))
        enum = enumerate_quotient(entries, n)
        if enum is None:
            if idx != INFINITY or quo.rank == 0:
                bad.append(("infinite", entries))
        else:
            residues, add = enum
            if idx != len(residues) or quo.order != len(residues):
                bad.append(("index", entries))
            elif len(residues) <= 60:
                zero = reduce_mod((0,) * n, echelon_basis(entries, n))
                if order_multiset(residues, add, zero) != predicted_order_multiset(quo):
                    bad.append(("structure", entries))
        checked += 1

    klein = from_catalog("Z2xZ2")
    a, b, ab = (klein.index_of(s) for s in ("a", "b", "ab"))
    one = (1,)
    virt = make_virtabelian(klein, FgAbelian(0, (2,)), {},
                            {(a, a): one, (b, b): one, (ab, ab): one,
                             (a, ab): one, (ab, b): one, (b, a): one})
    quaternion_ok = is_isomorphic(to_cayley(virt), from_catalog("Q8"))
    verdict(f"criterion 8: SNF/cokernel/index vs coset enumeration on "
             f"{checked} matrices (>= 500 required); quaternion cocycle "
             "tabulates to Q8",
             checked >= 500 and not bad and quaternion_ok, str(bad[:3]))


def test_criterion_9_degree_one_subgroup_is_the_center(verdict):
    results = {}
    for sphere_form, deck in (("S3modZ4", "Z(4)"), ("S3modQ8", "Q8")):
        x = BY_NAME[sphere_form]
        g = from_catalog(deck)
        data = x.gottlieb[1]
        if data.kind == "full":
            got = sorted(g.element_names)
        else:
            got = sorted(data.elements)
        results[sphere_form] = (got == sorted(center(g).names()))
    verdict("criterion 9: G1(S3/G) equals center(G) for Z4 and Q8",
             all(results.values()), str(results))


def test_criterion_10_cli_determinism(verdict, tmp_path):
    import io
    out = io.StringIO()
    pristine = run(["verify", "--all", "--max-n", "4"], out=out, err=out)
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    target = mutated / "s3modq8.json"
    doc = json.loads(target.read_text())
    doc["gottlieb"]["1"] = "full"  # one perturbed evaluation subgroup entry
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    out2 = io.StringIO()
    perturbed = run(["verify", "--all", "--max-n", "4",
                     "--catalog-dir", str(mutated)], out=out2, err=out2)
    verdict("criterion 10: verify --all exits 0 pristine and 3 under a "
             "single perturbed Gottlieb entry",
             pristine == 0 and perturbed == 3,
             f"pristine={pristine} perturbed={perturbed}")
