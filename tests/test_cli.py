"""Command-line behavior: verbs, exit codes, and byte-level determinism."""

import collections
import io
import json
import pathlib
import random
import shutil

import pytest

from strategies import random_base, time_limit

from thg import cli, fox, report, rhodes
from thg.cli import (EXIT_CHECK_FAILED, EXIT_COMPUTATION, EXIT_OK, EXIT_USAGE,
                     run)
from thg.errors import UnsupportedError
from thg.fingroup import from_catalog

CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_list_names_every_model():
    code, out, _ = invoke("list")
    assert code == EXIT_OK
    for name in ("S3", "RP3", "rp3-z2z2", "t3-z2"):
        assert name in out


def test_json_output_is_byte_identical_across_runs():
    first = invoke("gsigma", "rp3-z2z2", "--n", "1", "--format", "json")
    second = invoke("gsigma", "rp3-z2z2", "--n", "1", "--format", "json")
    assert first == second and first[0] == EXIT_OK
    v1 = invoke("verify", "--all", "--max-n", "3", "--format", "json")
    v2 = invoke("verify", "--all", "--max-n", "3", "--format", "json")
    assert v1 == v2 and v1[0] == EXIT_OK


def test_gsigma_names_the_quaternion_group():
    code, out, _ = invoke("gsigma", "rp3-z2z2", "--n", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    realized = doc["results"][0]["realized"]
    assert realized == {"group": "Q8", "order": 8, "abelian": False}
    assert doc["results"][0]["summary"]["order"] == 8


@pytest.mark.parametrize("build, name", [
    (lambda: from_catalog("Q8xZ2"), "non-abelian group of order 16"),
    (lambda: from_catalog("D4"), "D4"),
    (lambda: from_catalog("Q8"), "Q8"),
    (lambda: from_catalog("Z(4)xZ2"), "Z/2 x Z/4"),
    (lambda: random_base("Q8", random.Random(3)), "Q8"),
    (lambda: random_base("D4", random.Random(4)), "D4")])
def test_identify_group_names_each_branch(build, name):
    # The gsigma renderer names the realized group this way; the relabelled
    # tables reach Q8 and D4 by isomorphism, not by their catalog tables.
    assert cli.identify_group(build()) == name


def test_tau_beyond_the_recorded_range_is_a_computation_error():
    code, out, err = invoke("tau", "S3", "--n", "9")
    assert code == EXIT_COMPUTATION
    assert out == "" and "degree" in err


def test_usage_errors():
    assert invoke("tau")[0] == EXIT_USAGE                      # no target
    assert invoke("tau", "nosuch", "--n", "1")[0] == EXIT_USAGE
    assert invoke("tau", "S3", "--n", "2", "--max-n", "3")[0] == EXIT_USAGE
    assert invoke("tau", "S3", "--n", "0")[0] == EXIT_USAGE
    assert invoke("verify")[0] == EXIT_USAGE                   # needs --all/target
    assert invoke("gtau", "t3-z2", "--n", "1")[0] == EXIT_USAGE  # wrong kind
    assert invoke("sigma", "T3", "--n", "1")[0] == EXIT_USAGE    # wrong kind
    assert invoke("frobnicate")[0] == EXIT_USAGE


# argv -> (exit code, stderr).  Options may come before or after the
# target; an argument a verb does not take is a usage error, not dropped.
USAGE_TABLE = [
    (("verify", "S3", "--all"), EXIT_USAGE, "thg: --all excludes a target\n"),
    (("audit", "s3-q8", "--all"), EXIT_USAGE, "thg: --all excludes a target\n"),
    (("tau", "S3", "--all"), EXIT_USAGE,
     "thg: --all belongs to verify and audit only\n"),
    (("list", "--n", "1"), EXIT_USAGE, "thg: list takes no --n or --max-n\n"),
    (("show", "S3", "--max-n", "2"), EXIT_USAGE,
     "thg: show takes no --n or --max-n\n"),
    (("g0", "s3-q8", "--n", "1"), EXIT_USAGE,
     "thg: g0 takes no --n or --max-n\n"),
    (("list", "S3"), EXIT_USAGE, "thg: list takes no target\n"),
    ((), EXIT_USAGE, "thg: the following arguments are required: verb\n"),
    (("tau", "--n", "2", "S3"), EXIT_OK, ""),
    (("verify", "--max-n", "2", "--all"), EXIT_OK, ""),
    (("--help",), EXIT_OK, ""),
    # The grammar's edges, recorded against the argparse reader that the
    # hand-written one replaced.
    (("frobnicate",), EXIT_USAGE,
     "thg: argument verb: invalid choice: 'frobnicate' (choose from 'list', "
     "'show', 'tau', 'sigma', 'gtau', 'gsigma', 'g0', 'classify', 'verify', "
     "'audit')\n"),
    (("tau", "S3", "--format", "xml"), EXIT_USAGE,
     "thg: argument --format: invalid choice: 'xml' (choose from 'text', "
     "'json')\n"),
    (("tau", "S3", "--n", "x"), EXIT_USAGE,
     "thg: argument --n: invalid int value: 'x'\n"),
    (("tau", "S3", "--n"), EXIT_USAGE,
     "thg: argument --n: expected one argument\n"),
    (("tau", "S3", "S5"), EXIT_USAGE, "thg: unrecognized arguments: S5\n"),
    (("tau", "S3", "--n=2"), EXIT_OK, ""),
    (("tau", "S3", "--n", "1", "--format=json"), EXIT_OK, ""),
    (("verify", "S3", "--max", "3"), EXIT_OK, ""),
    (("tau", "S3", "--n", "-3"), EXIT_USAGE, "thg: --n must be at least 1\n"),
    (("tau", "S3", "--n", "2", "--n", "3"), EXIT_OK, ""),
    (("frobnicate", "--help"), EXIT_OK, ""),
    (("tau", "S3", "--bogus"), EXIT_USAGE,
     "thg: unrecognized arguments: --bogus\n"),
    (("verify", "--all=1"), EXIT_USAGE,
     "thg: argument --all: ignored explicit argument '1'\n"),
]


@pytest.mark.parametrize("argv, code, err", USAGE_TABLE)
def test_usage_goes_through_the_given_streams(argv, code, err, capsys):
    got_code, out, got_err = invoke(*argv)
    assert (got_code, got_err) == (code, err)
    assert capsys.readouterr() == ("", "")
    if "--help" in argv:
        assert out.startswith("usage: thg ")


@pytest.mark.parametrize("argv, same_as", [
    (("tau", "S3", "--n=2"), ("tau", "S3", "--n", "2")),
    (("tau", "--format=json", "S3"), ("tau", "S3", "--format", "json")),
    (("verify", "S3", "--max", "3"), ("verify", "S3", "--max-n", "3")),
    (("tau", "S3", "--n", "2", "--n", "3"), ("tau", "S3", "--n", "3")),
    (("tau", "--", "S3"), ("tau", "S3")),
])
def test_option_spellings_read_alike(argv, same_as):
    # An abbreviation, --opt=value and a repeated option (the last wins)
    # read as their plain spelling.
    assert invoke(*argv) == invoke(*same_as)


def test_a_zero_degree_bound_is_a_usage_error_on_every_verb():
    # The battery verbs take --n N as their bound, and read it through
    # the same parser as the tower verbs.
    for argv in (("tau", "S1"), ("classify", "s3-q8"), ("verify", "S1"),
                 ("audit", "s3-q8")):
        code, out, err = invoke(*argv, "--n", "0")
        assert (code, out, err) == (EXIT_USAGE, "", "thg: --n must be at least 1\n"), argv
        code, _, err = invoke(*argv, "--max-n", "0")
        assert (code, err) == (EXIT_USAGE, "thg: --max-n must be at least 1\n"), argv


def test_show_emits_the_canonical_document():
    code, out, _ = invoke("show", "s3-z4")
    assert code == EXIT_OK
    assert out == (CATALOG_DIR / "s3-z4.json").read_text()


def test_tau_text_output_shape():
    code, out, _ = invoke("tau", "S3", "--n", "4")
    assert code == EXIT_OK
    assert "tau_4(S3): order infinity" in out
    assert "pi3 ^ 3: Z" in out


def test_g0_text_output_names_rules():
    code, out, _ = invoke("g0", "s5-z2")
    assert code == EXIT_OK
    assert "order 2" in out and "Lefschetz" in out


def test_classify_reports_space_level_verdicts():
    code, out, _ = invoke("classify", "s3-z4", "--max-n", "4", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["space_level"]["gottlieb-rhodes"]["verdict"] == "true"
    assert len(doc["per_degree"]) == 4


def test_verify_passes_on_the_pristine_catalog():
    code, out, _ = invoke("verify", "--all", "--max-n", "4")
    assert code == EXIT_OK
    assert "PASSED" in out
    assert "[fail]" not in out and "[violation]" not in out


def test_audit_passes_and_reports_expected_exceptions():
    code, out, _ = invoke("audit", "--all", "--max-n", "4")
    assert code == EXIT_OK
    assert out.count("[expected-exception]") == 3


def test_verify_detects_a_single_perturbed_catalog_value(tmp_path):
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    target = mutated / "s3modq8.json"
    doc = json.loads(target.read_text())
    assert doc["gottlieb"]["1"] == {"elements": ["1", "-1"]}
    doc["gottlieb"]["1"] = "full"
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, _ = invoke("verify", "--all", "--max-n", "4",
                          "--catalog-dir", str(mutated))
    assert code == EXIT_CHECK_FAILED
    assert "[fail]" in out


def test_one_perturbed_frozen_value_fails_that_fact_only(tmp_path):
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    target = mutated / "s5.json"
    doc = json.loads(target.read_text())
    assert doc["gottlieb"]["5"] == {"generators": [[2]]}
    doc["gottlieb"]["5"] = {"generators": [[3]]}
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, _ = invoke("verify", "--all", "--max-n", "4",
                          "--catalog-dir", str(mutated), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    failed = [(e["check"], e["target"], e["n"], e["detail"])
              for e in json.loads(out)["report"]["entries"]
              if e["status"] == "fail"]
    assert failed == [("frozen-gottlieb-index", "S5", 5, "index 3, expected 2")]


def test_verify_reports_broken_catalog_as_failure(tmp_path):
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    (mutated / "s3.json").write_text("{broken")
    code, out, _ = invoke("verify", "--all", "--max-n", "2",
                          "--catalog-dir", str(mutated))
    assert code == EXIT_CHECK_FAILED
    assert "catalog-load" in out
    # A schema-invalid value flips verify the same way.
    (mutated / "s3.json").write_text((CATALOG_DIR / "s3.json").read_text())
    doc = json.loads((mutated / "s5.json").read_text())
    doc["pi"]["5"]["torsion"] = [-3]
    (mutated / "s5.json").write_text(json.dumps(doc))
    code, out, _ = invoke("verify", "--all", "--max-n", "2",
                          "--catalog-dir", str(mutated))
    assert code == EXIT_CHECK_FAILED
    # Outside verify, a broken catalog is an input error.
    code, _, err = invoke("tau", "S3", "--n", "2",
                          "--catalog-dir", str(mutated))
    assert code == EXIT_COMPUTATION and err != ""


def test_a_rank_past_the_coordinate_cap_fails_the_catalog_load(tmp_path):
    from thg.fingroup import COORD_CAP
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    doc = json.loads((mutated / "t3.json").read_text())
    doc["pi1"]["rank"] = COORD_CAP + 1
    (mutated / "t3.json").write_text(json.dumps(doc))
    code, out, err = invoke("list", "--catalog-dir", str(mutated))
    assert code == EXIT_COMPUTATION and out == ""
    assert err.startswith("thg: pi1.rank: ") and err.count("\n") == 1
    code, out, _ = invoke("verify", "--all", "--max-n", "2",
                          "--catalog-dir", str(mutated), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["target"], e["status"]) for e in entries] == [
        ("catalog-load", "pi1.rank", "fail")]


def test_a_catalog_dir_model_never_gets_a_builtin_tau_summary(tmp_path):
    # Same name, different pi1: each request answers from its own model,
    # in either order, though summaries outlive a request in process.
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    doc = json.loads((mutated / "t3.json").read_text())
    doc["pi1"]["rank"] = 2
    (mutated / "t3.json").write_text(json.dumps(doc))
    (mutated / "t3-z2.json").unlink()  # its action is a 3 x 3 matrix
    for _ in range(2):
        code, out, _ = invoke("tau", "T3", "--n", "4", "--format", "json")
        assert code == EXIT_OK and '"Z^3"' in out
        code, out, _ = invoke("tau", "T3", "--n", "4", "--format", "json",
                              "--catalog-dir", str(mutated))
        assert code == EXIT_OK and '"Z^2"' in out and '"Z^3"' not in out


def test_an_aspherical_truncation_far_past_the_data_costs_nothing(tmp_path):
    # An aspherical space lists no pi entries, so its truncation is not
    # bounded by its document; the orbit space reads only the degrees its
    # action lists.
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    doc = json.loads((mutated / "t3.json").read_text())
    doc["truncation"] = 10 ** 9
    (mutated / "t3.json").write_text(json.dumps(doc))
    code, shipped, _ = invoke("sigma", "t3-trivial", "--n", "2")
    assert code == EXIT_OK
    with time_limit(2.0):
        code, out, _ = invoke("sigma", "t3-trivial", "--n", "2",
                              "--catalog-dir", str(mutated))
    assert (code, out) == (EXIT_OK, shipped)


def test_catalog_dir_environment_variable(tmp_path, monkeypatch):
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    target = mutated / "s5.json"
    doc = json.loads(target.read_text())
    doc["gottlieb"]["5"] = "full"  # contradicts the order-two Whitehead square
    target.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    monkeypatch.setenv("THG_CATALOG_DIR", str(mutated))
    code, _, _ = invoke("verify", "--all", "--max-n", "4")
    assert code == EXIT_CHECK_FAILED


@pytest.mark.parametrize("how", ["option", "environment"])
def test_an_unreadable_catalog_dir_is_a_model_error(tmp_path, monkeypatch, how):
    # A missing directory, and a directory where a *.json file should be.
    (tmp_path / "bad.json").mkdir()
    for path, where in ((str(tmp_path / "missing"), str(tmp_path / "missing")),
                        (str(tmp_path), "bad.json")):
        catalog = ("--catalog-dir", path) if how == "option" else ()
        if how == "environment":
            monkeypatch.setenv("THG_CATALOG_DIR", path)
        code, out, err = invoke("tau", "S3", *catalog)
        assert (code, out) == (EXIT_COMPUTATION, "")
        assert err.startswith(f"thg: {where}: cannot read: ") and err.count("\n") == 1
        code, out, err = invoke("verify", "S3", *catalog, "--format", "json")
        assert (code, err) == (EXIT_CHECK_FAILED, "")
        assert [(e["check"], e["target"], e["status"])
                for e in json.loads(out)["report"]["entries"]] == [
            ("catalog-load", where, "fail")]


def test_verify_single_target():
    code, out, _ = invoke("verify", "rp3-z2z2", "--max-n", "3")
    assert code == EXIT_OK
    code, out, _ = invoke("verify", "S3", "--max-n", "4")
    assert code == EXIT_OK


def test_audit_single_target_text_and_json_agree_on_status():
    text_code, _, _ = invoke("audit", "t3-z2", "--max-n", "2")
    json_code, out, _ = invoke("audit", "t3-z2", "--max-n", "2",
                               "--format", "json")
    assert text_code == json_code == EXIT_OK
    doc = json.loads(out)
    assert doc["report"]["passed"] is True


def test_sigma_json_carries_bookkeeping():
    code, out, _ = invoke("sigma", "s3-q8", "--n", "2", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    book = doc["results"][0]["extension_bookkeeping"]
    assert book["group_order"] == 8
    assert book["product"] == doc["results"][0]["summary"]["order"]


def test_gtau_handles_indeterminate_targets():
    # L(7,1): no recorded degree-one subgroup and no rule decides it.
    # Build it on the fly through the catalog-dir plumbing instead of
    # the builtin set; the lens here is only the CLI surface.
    code, out, _ = invoke("gtau", "T3", "--n", "1", "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "summary" in doc["results"][0]


def _break_multiplicity_column(monkeypatch):
    from thg import fox
    honest = fox.recursive_tau_multiplicities

    def off_by_one(n):
        column = list(honest(n))
        column[n // 2] += 1
        return tuple(column)

    monkeypatch.setattr(fox, "recursive_tau_multiplicities", off_by_one)


def test_bookkeeping_failure_is_a_computation_error(monkeypatch):
    _break_multiplicity_column(monkeypatch)
    code, out, err = invoke("tau", "T3", "--n", "10")
    assert code == EXIT_COMPUTATION
    assert out == ""
    assert err == "thg: multiplicity recursion out of step\n"


def test_verify_grades_bookkeeping_failure_as_such(monkeypatch):
    _break_multiplicity_column(monkeypatch)
    code, out, _ = invoke("verify", "t3-z2", "--max-n", "6",
                          "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    failed = [e for e in entries if e["check"] == "action-battery"]
    assert [e["rule"] for e in failed] == ["internal bookkeeping agreement"]


def test_verify_grades_space_bookkeeping_failure_as_such(monkeypatch):
    _break_multiplicity_column(monkeypatch)
    code, out, _ = invoke("verify", "S1", "--max-n", "6", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    failed = [e for e in entries if e["check"] == "space-battery"]
    assert [e["rule"] for e in failed] == ["internal bookkeeping agreement"]
    # The splitting walk raises at n = 4 and leaves its report behind, so
    # no fox-sequence entry for n = 2 or 3 comes before the failure.
    assert [(e["check"], e["status"]) for e in entries] == [
        ("multiplicity-identities", "fail"), ("space-battery", "fail")]


@pytest.mark.parametrize("target, module, name, check, rule", [
    ("S1", fox, "gottlieb_fox_crosscheck", "space-battery",
     "space checks run to completion"),
    ("t3-z2", rhodes, "rhodes_split_check", "action-battery",
     "transformation checks run to completion"),
])
def test_verify_grades_a_computation_error_as_an_unfinished_battery(
        monkeypatch, target, module, name, check, rule):
    def refuse(*_):
        raise UnsupportedError("no route past this degree")
    monkeypatch.setattr(module, name, refuse)
    code, out, _ = invoke("verify", target, "--max-n", "3", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    failed = [(e["check"], e["rule"], e["detail"])
              for e in json.loads(out)["report"]["entries"]
              if e["status"] == "fail"]
    assert failed == [(check, rule, "no route past this degree")]


def test_verify_grades_a_sigma_rank_disagreement(monkeypatch):
    import dataclasses

    from thg.abelian import FgAbelian
    honest = fox.tau_invariants

    def extra_rank(x, n):
        # sigma_n as the Rhodes walk reads it, tau_n of the orbit space, with
        # one more free layer: the order stays infinite, the rank does not.
        s = honest(x, n)
        if x.name != "T3/t3-z2":
            return s
        return dataclasses.replace(
            s, groups=s.groups + (FgAbelian(1),), mults=s.mults + (1,))

    monkeypatch.setattr(fox, "tau_invariants", extra_rank)
    code, out, _ = invoke("verify", "t3-z2", "--max-n", "3", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    failed = [e for e in entries if e["status"] == "fail"]
    assert [(e["check"], e["rule"]) for e in failed] == [
        ("action-battery", "internal bookkeeping agreement")]
    assert failed[0]["detail"] == "sigma_1(t3-z2): orbit rank 4 vs tau rank 3"
    # The walk raises at n = 1 and its report goes with it: no sigma-order
    # entry of the action comes before the failure.
    assert [(e["check"], e["target"], e["n"]) for e in entries] == [
        ("multiplicity-identities", "binomials", None),
        *((f"fox-sequence-{part}", "T3", n)
          for n in (2, 3) for part in ("layers", "rank", "order")),
        *(("gottlieb-fox-equivalence", "T3", n) for n in (1, 2, 3)),
        ("whitehead-gottlieb", "T3", None),
        ("action-battery", "t3-z2", None)]


def _catalog_copy(tmp_path, edit):
    """A copy of the shipped catalog, edit(directory) applied to it."""
    copy = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, copy)
    edit(copy)
    return str(copy)


def _edit_document(copy, fname, change):
    doc = json.loads((copy / fname).read_text())
    change(doc)
    (copy / fname).write_text(json.dumps(doc))


def _cut_s5_to_degree_4(copy):
    def cut(doc):
        doc["truncation"] = 4
        del doc["pi"]["5"], doc["gottlieb"]["5"]
    _edit_document(copy, "s5.json", cut)
    (copy / "s5-z2.json").unlink()


def _t3_z2_not_free(copy):
    _edit_document(copy, "t3-z2.json", lambda doc: doc.update(free=False))


@pytest.mark.parametrize("edit, failed", [
    (_cut_s5_to_degree_4,
     [(check, "S5", 5, "S5 carries data up to degree 4; degree 5 was requested")
      for check in ("frozen-gottlieb-index", "frozen-homotopy-group")]),
    (_t3_z2_not_free,
     [(check, "t3-z2", 1, "orbit spaces are only constructed for free actions")
      for check in ("frozen-orbit-center", "frozen-orbit-abelianization")]),
])
def test_a_frozen_fact_whose_probe_cannot_run_fails_alone(tmp_path, edit, failed):
    copy = _catalog_copy(tmp_path, edit)
    code, out, err = invoke("verify", "--all", "--max-n", "2",
                            "--catalog-dir", copy, "--format", "json")
    assert code == EXIT_CHECK_FAILED and err == ""
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["target"], e["n"], e["detail"]) for e in entries
            if e["status"] == "fail"] == failed
    # The battery ran on past the failed facts, to the last one.
    assert entries[-1]["check"] == "frozen-antipodal-degree"


@pytest.mark.parametrize("request_argv", [
    pytest.param(("verify", "t3-z2"), id="verify"),
    pytest.param(("audit", "t3-z2"), id="audit"),
    pytest.param(("audit", "--all"), id="audit-all")])
def test_verify_grades_a_non_free_action_as_not_applicable(tmp_path, request_argv):
    # audit grades a non-free action as verify does, for one target or --all.
    copy = _catalog_copy(tmp_path, _t3_z2_not_free)
    code, out, _ = invoke(*request_argv, "--max-n", "2",
                          "--catalog-dir", copy, "--format", "json")
    assert code == EXIT_OK
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["target"], e["status"], e["detail"])
            for e in entries if e["target"] == "t3-z2"] == [
        ("action-battery", "t3-z2", "not-applicable", "the action is not free")]


@pytest.mark.parametrize("kind, path", [("spcae", "s1.json.kind"),
                                        (None, "s1.json")])
def test_catalog_rejects_a_document_of_unknown_kind(tmp_path, kind, path):
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    text = "[]"  # not an object at all
    if kind is not None:
        doc = json.loads((mutated / "s1.json").read_text())
        doc["kind"] = kind
        text = json.dumps(doc)
    (mutated / "s1.json").write_text(text)
    code, out, err = invoke("list", "--catalog-dir", str(mutated))
    assert code == EXIT_COMPUTATION and out == ""
    assert err.startswith(f"thg: {path}: ")
    code, out, _ = invoke("verify", "--all", "--max-n", "2",
                          "--catalog-dir", str(mutated), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["target"], e["status"]) for e in entries] == [
        ("catalog-load", path, "fail")]


@pytest.mark.parametrize("copy_from, copy_to, path", [
    ("s1.json", "zz-s1-copy.json", "zz-s1-copy.json.name"),
    ("s2-z2.json", "S1.json", "S1.json")])
def test_catalog_rejects_a_duplicate_model_name(tmp_path, copy_from, copy_to,
                                                path):
    # A second space named S1, or a transformation whose file stem is S1.
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    shutil.copy(mutated / copy_from, mutated / copy_to)
    code, out, err = invoke("list", "--catalog-dir", str(mutated))
    assert code == EXIT_COMPUTATION and out == ""
    assert err.startswith(f"thg: {path}: ")
    code, out, _ = invoke("verify", "--all", "--max-n", "2",
                          "--catalog-dir", str(mutated), "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["target"], e["status"]) for e in entries] == [
        ("catalog-load", path, "fail")]


def test_loader_warnings_go_to_stderr(tmp_path):
    # Two spaces that load with one warning each, one per warning rule, and
    # a transformation of the second.
    q8 = {"kind": "space", "name": "Q8W", "truncation": 2,
          "aspherical": False, "pi1": {"catalog": "Q8"},
          "pi": {"2": {"rank": 0, "torsion": []}},
          "gottlieb": {"1": {"elements": ["1", "-1", "i", "-i"]}}}
    z2 = {"kind": "space", "name": "Z2W", "truncation": 2,
          "aspherical": False, "pi1": {"catalog": "Z2"},
          "pi": {"2": {"rank": 1, "torsion": []}},
          "pi1_action": {"t": {"2": [[-1]]}}, "gottlieb": {"1": "full"}}
    act = {"kind": "transformation", "space": "Z2W",
           "group": {"catalog": "Z2"}, "free": False, "action": {}}
    for stem, doc in (("Q8W", q8), ("Z2W", z2), ("z2w-z2", act)):
        (tmp_path / f"{stem}.json").write_text(json.dumps(doc))
    q8_line = ("thg: warning: Q8W: gottlieb.1: degree-1 evaluation subgroup "
               "exceeds the center of the fundamental group\n")
    z2_line = ("thg: warning: Z2W: gottlieb.1: a full degree-1 evaluation "
               "subgroup is inconsistent with a nontrivial fundamental "
               "group action on higher degrees\n")
    catalog = ("--catalog-dir", str(tmp_path))
    code, out, err = invoke("show", "Q8W", *catalog)
    assert (code, err) == (EXIT_OK, q8_line)
    assert "warning" not in out
    code, _, err = invoke("show", "Z2W", *catalog)
    assert (code, err) == (EXIT_OK, z2_line)
    # A transformation's warning is its space's, under the space's name.
    code, _, err = invoke("show", "z2w-z2", *catalog)
    assert (code, err) == (EXIT_OK, z2_line)
    code, out, err = invoke("list", *catalog)
    assert (code, err) == (EXIT_OK, q8_line + z2_line)
    assert "warning" not in out
    _, _, err = invoke("verify", "--all", "--max-n", "2", *catalog)
    assert err == q8_line + z2_line
    # The shipped catalog loads without a warning.
    assert invoke("list")[2] == ""


def test_a_single_target_builds_only_what_it_reads(monkeypatch):
    # The full load is never called, and only the target, the space it
    # names and the paired orbit model are decoded and built.
    from thg import cli, spacecat

    def full_load():
        raise AssertionError("the whole catalog was built")
    monkeypatch.setattr(cli, "builtin_catalog", full_load)
    monkeypatch.setattr(spacecat, "builtin_catalog", full_load)
    decoded, decode = [], spacecat._parse_document
    monkeypatch.setattr(spacecat, "_parse_document", lambda data, path: (
        decoded.append(path) or decode(data, path)))
    built = []
    space, transformation = (spacecat._space_from_doc,
                             spacecat._transformation_from_doc)
    monkeypatch.setattr(spacecat, "_space_from_doc", lambda doc, path="": (
        built.append(doc["name"]) or space(doc, path)))
    monkeypatch.setattr(spacecat, "_transformation_from_doc",
                        lambda doc, name, resolver: (
                            built.append(name)
                            or transformation(doc, name, resolver)))
    for argv, names in ((("tau", "S3", "--n", "2"), ["S3"]),
                        (("show", "s3-z4"), ["s3-z4", "S3"]),
                        (("audit", "s3-q8", "--max-n", "4"),
                         ["s3-q8", "S3", "S3modQ8"])):
        built.clear()
        decoded.clear()
        code, out, err = invoke(*argv)
        assert (code, err, built) == (EXIT_OK, "", names)
        files = {"S3": "s3", "S3modQ8": "s3modq8"}
        assert decoded == [f"{files.get(n, n)}.json" for n in names]
    assert "[pass] oprea-center: S3modQ8 n=1" in out
    # Each splitting walk builds every tau_n once, so a summary is built at
    # most twice: once by its walk and once for a sigma-order entry.
    builds = collections.Counter()
    honest = fox.tau_invariants

    def counting(x, n):
        builds[x.name, n] += 1
        return honest(x, n)
    monkeypatch.setattr(fox, "tau_invariants", counting)
    monkeypatch.setattr(rhodes, "tau_invariants", counting)
    assert invoke("verify", "s3-q8", "--max-n", "6")[0] == EXIT_OK
    assert len(builds) == 12 and max(builds.values()) == 2, builds


@pytest.mark.parametrize("name", ["../s1", "catalog/s1", "s1.json",
                                  "/etc/hostname"])
def test_a_target_shaped_like_a_path_opens_only_catalog_files(monkeypatch,
                                                              name):
    # Only listed catalog files are probed, so a miss reads the catalog
    # directory and nothing else.
    from thg import spacecat
    opened = []
    monkeypatch.setattr(spacecat, "open", lambda path, mode: (
        opened.append(path) or open(path, mode)), raising=False)
    assert invoke("tau", name, "--n", "1") == (
        EXIT_USAGE, "", f"thg: no model named {name!r}\n")
    assert len(opened) == len(list(CATALOG_DIR.glob("*.json")))
    assert {pathlib.Path(p).resolve().parent for p in opened} == {CATALOG_DIR}


def test_sphere_templates_stop_at_the_degree_cap():
    # A template's truncation is its dimension; S<k> past the cap is
    # refused before its homotopy data is built.
    with time_limit(5):
        code, out, err = invoke("tau", "S10000", "--n", "1")
    assert (code, out, err) == (EXIT_OK, "tau_1(S10000): order 1, direct "
                                         "product\n  base: 1\n", "")
    for k in ("10001", "9" * 5000):
        assert invoke("tau", f"S{k}", "--n", "1") == (
            EXIT_USAGE, "", f"thg: no model named 'S{k}': sphere templates "
                            "stop at S10000\n")


def test_a_catalog_dir_without_the_circle_answers_from_the_template(tmp_path):
    # S1 is not in the directory, so find_model builds sphere_space(1).
    shutil.copy(CATALOG_DIR / "s3.json", tmp_path)
    request = ("tau", "S1", "--n", "3", "--format", "json")
    shipped = invoke(*request)
    assert shipped[0] == EXIT_OK
    assert invoke(*request, "--catalog-dir", str(tmp_path)) == shipped


def test_a_catalog_dir_is_validated_whole(tmp_path):
    # verify of one model still fails on a broken file it never reads.
    mutated = tmp_path / "catalog"
    shutil.copytree(CATALOG_DIR, mutated)
    doc = json.loads((mutated / "s5.json").read_text())
    doc["pi"]["5"]["torsion"] = [-3]
    (mutated / "s5.json").write_text(json.dumps(doc))
    code, out, _ = invoke("verify", "S3", "--catalog-dir", str(mutated),
                          "--format", "json")
    assert code == EXIT_CHECK_FAILED
    entries = json.loads(out)["report"]["entries"]
    assert [(e["check"], e["status"]) for e in entries] == [
        ("catalog-load", "fail")]


def test_oprea_grades_a_trivial_group_by_the_trivial_pi1_rule(tmp_path):
    # S3modtrivial records no degree-1 subgroup.  The verdict rests on
    # SpaceModel.gottlieb_entry, by which a trivial pi_1 has G_1 = pi_1;
    # read from the file alone, the orbit model would carry no degree-1
    # data.
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    shutil.copy(CATALOG_DIR / "s3.json", catalog)
    doc = json.loads((CATALOG_DIR / "s3modz4.json").read_text())
    doc.update(name="S3modtrivial", pi1={"catalog": "trivial"})
    del doc["gottlieb"]["1"]
    (catalog / "s3modtrivial.json").write_text(json.dumps(doc))
    (catalog / "s3-triv.json").write_text(json.dumps({
        "action": {}, "free": True, "group": {"catalog": "trivial"},
        "kind": "transformation", "space": "S3", "sphere_dimension": 3}))
    code, out, err = invoke("audit", "s3-triv", "--catalog-dir", str(catalog))
    assert (code, err) == (EXIT_OK, "")
    assert ("[pass] oprea-center: S3modtrivial n=1 -- degree-1 subgroup ['e'] "
            "vs center ['e']\n") in out


def test_rhodes_verbs_grade_missing_gottlieb_data_as_indeterminate(tmp_path):
    # T3 without its evaluation-subgroup data, under both shipped actions.
    doc = json.loads((CATALOG_DIR / "t3.json").read_text())
    del doc["gottlieb"]
    (tmp_path / "t3.json").write_text(json.dumps(doc))
    for name in ("t3-z2.json", "t3-trivial.json"):
        shutil.copy(CATALOG_DIR / name, tmp_path)
    catalog = ("--max-n", "2", "--catalog-dir", str(tmp_path))
    reason = "T3 has no evaluation-subgroup data at degree 1"
    assert invoke("gsigma", "t3-z2", *catalog) == (EXIT_OK, "".join(
        f"Gsigma_{n}(t3-z2): indeterminate ({reason})\n" for n in (1, 2)), "")

    code, out, err = invoke("classify", "t3-trivial", *catalog, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    per_degree = json.loads(out)["per_degree"]
    assert [(d["n"], d["gottlieb_fox"]) for d in per_degree] == [
        (1, "indeterminate"), (2, "indeterminate")]
    assert per_degree[0]["rules"]["gottlieb_fox"] == (
        "binomial-weighted index product over the tower = unknown")

    code, out, err = invoke("audit", "t3-trivial", *catalog, "--format", "json")
    assert (code, err) == (EXIT_OK, "")
    graded = {(e["check"], e["n"]): (e["status"], e["detail"])
              for e in json.loads(out)["report"]["entries"]}
    assert graded["aspherical-equivalence", None] == ("indeterminate", reason)
    assert graded["orbit-implies-equivariant", 1] == (
        "indeterminate", f"conclusion undecided: {reason}")


def test_degrees_past_the_cap_are_usage_errors():
    # Refused before any model is built: the target need not exist.
    assert invoke("tau", "S3", "--n", "10001") == (
        EXIT_USAGE, "", "thg: --n must be at most 10000\n")
    assert invoke("verify", "nosuch", "--max-n", "10001") == (
        EXIT_USAGE, "", "thg: --max-n must be at most 10000\n")


def test_requests_past_the_data_exit_1_with_one_sentence():
    classify = invoke("classify", "s3-q8", "--max-n", "7")
    tau = invoke("tau", "S3", "--n", "7")
    assert classify[:2] == tau[:2] == (EXIT_COMPUTATION, "")
    assert classify[2] == tau[2] == (
        "thg: S3 carries data up to degree 6; degree 7 was requested\n")


# One request per verb, and the renderers its JSON and its text call.
RENDERED = {
    "list": (("list",), None, None),
    "show": (("show", "S3"), None, None),
    "tau": (("tau", "T3", "--max-n", "3"), "_summary_doc", "_summary_lines"),
    "sigma": (("sigma", "t3-z2", "--max-n", "3"), "_summary_doc",
              "_summary_lines"),
    "gtau": (("gtau", "S3", "--max-n", "3"), "_summary_doc", "_summary_lines"),
    "gsigma": (("gsigma", "rp3-z2z2", "--max-n", "2"), "_summary_doc",
               "_summary_lines"),
    "g0": (("g0", "s3-q8"), None, None),
    "classify": (("classify", "s3-q8", "--max-n", "3"), "_report_doc", None),
    "verify": (("verify", "s3-q8", "--max-n", "3"), "_report_doc", "lines"),
    "audit": (("audit", "s3-q8", "--max-n", "3"), "_report_doc", "lines"),
}


@pytest.mark.parametrize("verb", cli.VERBS)
def test_each_verb_builds_only_the_format_it_prints(monkeypatch, verb):
    calls = collections.Counter()
    for owner, name in ((cli, "_summary_doc"), (cli, "_summary_lines"),
                        (cli, "_report_doc"), (report.CheckReport, "lines")):
        def counted(*args, _honest=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _honest(*args)
        monkeypatch.setattr(owner, name, counted)
    argv, json_reads, text_reads = RENDERED[verb]
    for fmt, reads, unread in (("json", json_reads, ("_summary_lines", "lines")),
                               ("text", text_reads, ("_summary_doc", "_report_doc"))):
        calls.clear()
        code, out, _ = invoke(*argv, "--format", fmt)
        assert code == EXIT_OK and out, (verb, fmt)
        assert not any(calls[name] for name in unread), (verb, fmt, calls)
        assert reads is None or calls[reads], (verb, fmt, calls)
