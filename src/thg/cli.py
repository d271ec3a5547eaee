"""Command-line front end.

Verbs mirror the mathematical objects: tau and sigma print tower
invariants, gtau and gsigma their evaluation subgroups, g0 the
freely-homotopic-to-identity subgroup, classify the per-degree verdict
table, verify the full consistency battery (including a table of frozen
catalog facts), and audit the implication audits.

Exit codes: 0 success, 1 computation error (insufficient data,
unsupported input), 2 usage error, 3 a verification or audit failure.
JSON output is a single document with sorted keys and no volatile
fields, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Union

from . import fox, rhodes
from .abelian import INFINITY
from .errors import BookkeepingError, ModelError, NotFoundError, ThgError
from .fingroup import (CayleyGroup, abelian_structure, from_catalog,
                       is_isomorphic)
from .report import CheckReport, FAIL, PASS
from .spacecat import (Model, SpaceModel, TransformationModel,
                       builtin_catalog, catalog_from_dir, find_model,
                       orbit_space, serialize, subgroup_index_in)
from .tower import TowerSummary, VirtAbelian, abelianization, center_structure
from .verdict import Indeterminate

VERBS = ("list", "show", "tau", "sigma", "gtau", "gsigma", "g0", "classify",
         "verify", "audit")

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


# ---------------------------------------------------------------------------
# Formatting helpers


def _order_doc(order: int) -> Union[int, str]:
    return "infinity" if order == INFINITY else order


def _summary_doc(s: TowerSummary) -> dict:
    return {
        "base": s.base_name_or_order,
        "layers": [{"label": label, "group": grp.describe(),
                    "multiplicity": mult} for label, grp, mult in s.layers],
        "is_direct_product": s.is_direct_product,
        "order": _order_doc(s.finite_order),
    }


def _summary_lines(head: str, s: TowerSummary) -> List[str]:
    shape = "direct product" if s.is_direct_product else "iterated extension"
    lines = [f"{head}: order {_order_doc(s.finite_order)}, {shape}",
             f"  base: {s.base_name_or_order}"]
    for label, grp, mult in s.layers:
        lines.append(f"  {label} ^ {mult}: {grp.describe()}")
    return lines


def _entry_doc(e) -> dict:
    return {"check": e.check, "target": e.target, "n": e.n,
            "status": e.status, "rule": e.rule, "detail": e.detail}


def _report_doc(r: CheckReport) -> dict:
    return {"title": r.title, "entries": [_entry_doc(e) for e in r.entries],
            "counts": r.counts(), "passed": r.passed}


def identify_group(g: CayleyGroup) -> str:
    """Readable isomorphism-type label for a small group."""
    if g.is_abelian():
        return abelian_structure(g).describe()
    if g.order == 8:
        for name in ("Q8", "D4"):
            if is_isomorphic(g, from_catalog(name)):
                return name
    return f"non-abelian group of order {g.order}"


def _emit(doc: dict, text_lines: List[str], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        out.write("\n".join(text_lines) + "\n")


# ---------------------------------------------------------------------------
# Catalog plumbing


def _load_models(catalog_dir: Optional[str]) -> List[Model]:
    path = catalog_dir or os.environ.get("THG_CATALOG_DIR")
    if path:
        return catalog_from_dir(path)
    return builtin_catalog()


def _space_target(name: str, models: Sequence[Model]) -> SpaceModel:
    m = find_model(name, models)
    if not isinstance(m, SpaceModel):
        raise _Usage(f"{name} is a transformation model; this verb needs a "
                     f"space (try sigma/gsigma/g0)")
    return m


def _transformation_target(name: str, models: Sequence[Model]) -> TransformationModel:
    m = find_model(name, models)
    if not isinstance(m, TransformationModel):
        raise _Usage(f"{name} is a space model; this verb needs a "
                     f"transformation (a group action)")
    return m


class _Usage(Exception):
    pass


def _degrees(args, default: int = 1) -> List[int]:
    """The degrees a verb asks for: [N] for --n N, 1..N for --max-n N,
    1..default otherwise.  The battery verbs take the last as their bound."""
    if args.n is not None and args.max_n is not None:
        raise _Usage("--n and --max-n are mutually exclusive")
    if args.n is not None:
        if args.n < 1:
            raise _Usage("--n must be at least 1")
        return [args.n]
    top = args.max_n if args.max_n is not None else default
    if top < 1:
        raise _Usage("--max-n must be at least 1")
    return list(range(1, top + 1))


# ---------------------------------------------------------------------------
# Verbs


def _cmd_list(args, models, out) -> int:
    rows = []
    for m in models:
        if isinstance(m, SpaceModel):
            rows.append({"name": m.name, "kind": "space",
                         "truncation": m.truncation,
                         "aspherical": m.aspherical,
                         "pi1": m.pi1.describe()})
        else:
            rows.append({"name": m.name, "kind": "transformation",
                         "space": m.space.name,
                         "group_order": m.group.order,
                         "free": m.free})
    lines = []
    for r in rows:
        if r["kind"] == "space":
            extra = "aspherical, " if r["aspherical"] else ""
            lines.append(f"{r['name']:12s} space           "
                         f"{extra}truncation {r['truncation']}, "
                         f"pi1 = {r['pi1']}")
        else:
            free = "free" if r["free"] else "not free"
            lines.append(f"{r['name']:12s} transformation  "
                         f"group of order {r['group_order']} on "
                         f"{r['space']}, {free}")
    _emit({"command": {"verb": "list"}, "models": rows}, lines,
          args.format, out)
    return EXIT_OK


def _cmd_show(args, models, out) -> int:
    m = find_model(args.target, models)
    out.write(serialize(m))
    return EXIT_OK


def _cmd_tau(args, models, out) -> int:
    x = _space_target(args.target, models)
    results, lines = [], []
    for n in _degrees(args):
        s = fox.tau_invariants(x, n)
        results.append({"n": n, "summary": _summary_doc(s)})
        lines.extend(_summary_lines(f"tau_{n}({x.name})", s))
    doc = {"command": {"verb": "tau", "target": x.name}, "results": results}
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_sigma(args, models, out) -> int:
    tg = _transformation_target(args.target, models)
    results, lines = [], []
    for n in _degrees(args):
        s = rhodes.sigma_invariants(tg, n)
        tau_x = fox.tau_invariants(tg.space, n)
        book = {"group_order": tg.group.order,
                "tau_order": _order_doc(tau_x.finite_order),
                "product": _order_doc(tg.group.order * tau_x.finite_order)}
        results.append({"n": n, "summary": _summary_doc(s),
                        "extension_bookkeeping": book})
        lines.extend(_summary_lines(f"sigma_{n}({tg.name})", s))
        lines.append(f"  extension bookkeeping: {tg.group.order} * "
                     f"{book['tau_order']} = {book['product']}")
    doc = {"command": {"verb": "sigma", "target": tg.name}, "results": results}
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_gtau(args, models, out) -> int:
    x = _space_target(args.target, models)
    results, lines = [], []
    for n in _degrees(args):
        s = fox.gottlieb_fox_invariants(x, n)
        if isinstance(s, Indeterminate):
            results.append({"n": n, "indeterminate": s.reason})
            lines.append(f"Gtau_{n}({x.name}): indeterminate ({s.reason})")
        else:
            results.append({"n": n, "summary": _summary_doc(s)})
            lines.extend(_summary_lines(f"Gtau_{n}({x.name})", s))
    doc = {"command": {"verb": "gtau", "target": x.name}, "results": results}
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_gsigma(args, models, out) -> int:
    tg = _transformation_target(args.target, models)
    results, lines = [], []
    for n in _degrees(args):
        r = rhodes.gottlieb_rhodes_invariants(tg, n)
        if isinstance(r, Indeterminate):
            results.append({"n": n, "indeterminate": r.reason})
            lines.append(f"Gsigma_{n}({tg.name}): indeterminate ({r.reason})")
            continue
        item = {"n": n, "summary": _summary_doc(r.summary),
                "g0": {"order": r.g0.subgroup.order,
                       "members": list(r.g0.members())}}
        lines.extend(_summary_lines(f"Gsigma_{n}({tg.name})", r.summary))
        if r.realized is not None:
            item["realized"] = {"group": identify_group(r.realized),
                                "order": r.realized.order,
                                "abelian": r.realized.is_abelian()}
            lines.append(f"  realized: {item['realized']['group']} "
                         f"(order {r.realized.order}, abelian: "
                         f"{str(r.realized.is_abelian()).lower()})")
        results.append(item)
    doc = {"command": {"verb": "gsigma", "target": tg.name},
           "results": results}
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_g0(args, models, out) -> int:
    tg = _transformation_target(args.target, models)
    r = rhodes.compute_g0(tg)
    per = {name: {"verdict": v, "rule": rule}
           for name, (v, rule) in r.per_element_verdict.items()}
    doc = {"command": {"verb": "g0", "target": tg.name},
           "fully_determined": r.fully_determined(),
           "members": list(r.members()),
           "order": r.subgroup.order if r.subgroup is not None else None,
           "per_element": per}
    lines = [f"G0({tg.name}): order "
             f"{r.subgroup.order if r.subgroup is not None else '?'}, "
             f"members {{{', '.join(r.members())}}}"]
    for name in tg.group.element_names:
        v, rule = r.per_element_verdict[name]
        lines.append(f"  {name}: {v} ({rule})")
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_classify(args, models, out) -> int:
    tg = _transformation_target(args.target, models)
    rep = rhodes.classify(tg, _degrees(args, 4)[-1])
    per = []
    lines = [f"classification of {tg.name} through n = {rep.max_n}"]
    for d in rep.per_degree:
        per.append({"n": d.n,
                    "gottlieb": d.gottlieb.label(),
                    "gottlieb_fox": d.gottlieb_fox.label(),
                    "gottlieb_rhodes": d.gottlieb_rhodes.label(),
                    "equivariant_gottlieb": d.equivariant_gottlieb.label(),
                    "rules": {
                        "gottlieb": d.gottlieb.rule,
                        "gottlieb_fox": d.gottlieb_fox.rule,
                        "gottlieb_rhodes": d.gottlieb_rhodes.rule,
                        "equivariant_gottlieb": d.equivariant_gottlieb.rule,
                    }})
        lines.append(f"  n={d.n}: Gottlieb {d.gottlieb.label()}, "
                     f"Gottlieb-Fox {d.gottlieb_fox.label()}, "
                     f"Gottlieb-Rhodes {d.gottlieb_rhodes.label()}, "
                     f"equivariant {d.equivariant_gottlieb.label()}")
    space_level = {key: {"verdict": rv.label(), "rule": rv.rule}
                   for key, rv in sorted(rep.space_level.items())}
    for key, entry in space_level.items():
        lines.append(f"  space-level {key}: {entry['verdict']}")
    doc = {"command": {"verb": "classify", "target": tg.name,
                       "max_n": rep.max_n},
           "per_degree": per, "space_level": space_level,
           "consistency": _report_doc(rep.consistency)}
    _emit(doc, lines, args.format, out)
    return EXIT_OK


def _cmd_audit(args, models, out) -> int:
    targets: List[TransformationModel]
    if args.all:
        targets = [m for m in models
                   if isinstance(m, TransformationModel) and m.free]
    elif args.target:
        targets = [_transformation_target(args.target, models)]
    else:
        raise _Usage("audit needs a target model or --all")
    max_n = _degrees(args, 4)[-1]
    report = CheckReport("implication audits")
    for tg in targets:
        cap = _model_cap(tg.space, max_n)
        report.extend(rhodes.equivariant_gottlieb_audit(tg, cap))
        report.extend(rhodes.aspherical_gottlieb_check(tg, cap))
        report.extend(rhodes.oprea_check(tg, _paired_orbit_model(tg, models)))
    lines = report.lines()
    lines.append(_verdict_line(report))
    _emit({"command": {"verb": "audit",
                       "target": args.target if not args.all else "--all",
                       "max_n": max_n},
           "report": _report_doc(report)}, lines, args.format, out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _verdict_line(report: CheckReport) -> str:
    counts = report.counts()
    body = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    word = "PASSED" if report.passed else "FAILED"
    return f"{word} ({body})"


def _model_cap(x: SpaceModel, max_n: int) -> int:
    return max_n if x.aspherical else min(max_n, x.truncation)


def _paired_orbit_model(tg: TransformationModel,
                        models: Sequence[Model]) -> Optional[SpaceModel]:
    """The catalog space modelling this action's quotient, when shipped.

    Matched by name: the quotient of S<k> by a catalog group G is
    catalogued as S<k>mod<G>.  Used to check derived orbit data against
    independently recorded data.
    """
    if tg.sphere_dimension is None or tg.raw is None:
        return None
    group_spec = tg.raw.get("group")
    if not isinstance(group_spec, dict) or "catalog" not in group_spec:
        return None
    name = f"S{tg.sphere_dimension}mod{group_spec['catalog']}"
    try:
        m = find_model(name, models)
    except NotFoundError:
        return None
    return m if isinstance(m, SpaceModel) else None


# ---------------------------------------------------------------------------
# The verify battery


def _cmd_verify(args, models, out) -> int:
    if not args.all and not args.target:
        raise _Usage("verify needs a target model or --all")
    max_n = _degrees(args, 4)[-1]
    if args.all:
        spaces = [m for m in models if isinstance(m, SpaceModel)]
        actions = [m for m in models if isinstance(m, TransformationModel)]
    else:
        m = find_model(args.target, models)
        spaces = [m] if isinstance(m, SpaceModel) else [m.space]
        actions = [m] if isinstance(m, TransformationModel) else []
    report = build_verify_report(spaces, actions, models, max_n,
                                 include_goldens=args.all)
    lines = report.lines()
    lines.append(_verdict_line(report))
    _emit({"command": {"verb": "verify",
                       "target": args.target if not args.all else "--all",
                       "max_n": max_n},
           "report": _report_doc(report)}, lines, args.format, out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_verify_report(spaces: Sequence[SpaceModel],
                        actions: Sequence[TransformationModel],
                        models: Sequence[Model], max_n: int,
                        include_goldens: bool) -> CheckReport:
    """The full consistency battery over the given models.

    Identities are graded by re-deriving both sides; the frozen-fact
    table pins the catalog's recorded values (homotopy data, evaluation
    subgroups, extension structure) against recomputation, so a single
    edited catalog value flips the battery to failure.
    """
    report = CheckReport("verification battery")

    ok = True
    for n in range(1, 31):
        column = fox.recursive_tau_multiplicities(n)
        triples = [fox.multiplicities(n, i) for i in range(1, n + 1)]
        ok = ok and all(t.beta + t.gamma == math.comb(n, t.i - 1)
                        and column[t.i] == t.gamma for t in triples)
    report.add("multiplicity-identities", "binomials", None,
               PASS if ok else FAIL,
               "complement and telescoping identities for the tower "
               "multiplicities, degrees up to 30", "")

    for x in sorted(spaces, key=lambda m: m.name):
        cap = _model_cap(x, max_n)
        try:
            for n in range(2, cap + 1):
                report.extend(fox.fox_sequence_check(x, n))
            report.extend(fox.gottlieb_fox_crosscheck(x, cap))
            conflicts = fox.whitehead_gottlieb_conflicts(x)
            report.add("whitehead-gottlieb", x.name, None,
                       FAIL if conflicts else PASS,
                       "pairing tables vanish on evaluation-subgroup "
                       "generators", "; ".join(conflicts))
        except BookkeepingError as exc:
            report.add("space-battery", x.name, None, FAIL,
                       "internal bookkeeping agreement", str(exc))
        except ThgError as exc:
            report.add("space-battery", x.name, None, FAIL,
                       "space checks run to completion", str(exc))

    for tg in sorted(actions, key=lambda m: m.name):
        if not tg.free:
            continue
        cap = _model_cap(tg.space, max_n)
        try:
            _verify_action(report, tg, models, cap)
        except BookkeepingError as exc:
            report.add("action-battery", tg.name, None, FAIL,
                       "internal bookkeeping agreement", str(exc))
        except ThgError as exc:
            report.add("action-battery", tg.name, None, FAIL,
                       "transformation checks run to completion", str(exc))

    if include_goldens:
        _apply_goldens(report, models)
    return report


def _verify_action(report: CheckReport, tg: TransformationModel,
                   models: Sequence[Model], cap: int) -> None:
    """The action's checks.  The extension tau_n(X) -> sigma_n -> G is
    graded here once per degree: its order as the sigma-order entry, its
    free rank as a BookkeepingError that the caller grades."""
    orbit_pi1 = orbit_space(tg).pi1
    for n in range(1, cap + 1):
        s = rhodes.sigma_invariants(tg, n)
        tau_x = fox.tau_invariants(tg.space, n)
        agree = s.finite_order == tg.group.order * tau_x.finite_order
        report.add("sigma-order", tg.name, n,
                   PASS if agree else FAIL,
                   "orbit-space order equals |G| times the tau order",
                   f"{_order_doc(s.finite_order)} vs {tg.group.order} * "
                   f"{_order_doc(tau_x.finite_order)}")
        orbit_rank = orbit_pi1.rank + fox.summary_layer_rank(s)
        tau_rank = tg.space.pi1.rank + fox.summary_layer_rank(tau_x)
        if orbit_rank != tau_rank:
            raise BookkeepingError(
                f"sigma_{n}({tg.name}): orbit rank {orbit_rank} vs "
                f"tau rank {tau_rank}")
        gr = rhodes.gottlieb_rhodes_invariants(tg, n)
        gtau = fox.gottlieb_fox_invariants(tg.space, n)
        if not isinstance(gr, Indeterminate) and not isinstance(gtau, Indeterminate):
            want = gtau.finite_order * gr.g0.subgroup.order
            report.add("gsigma-order", tg.name, n,
                       PASS if gr.finite_order == want else FAIL,
                       "evaluation-subgroup order is |Gtau_n| times |G0|",
                       f"{_order_doc(gr.finite_order)} vs "
                       f"{_order_doc(want)}")
    for n in range(2, cap + 1):
        report.extend(rhodes.rhodes_split_check(tg, n))
    report.extend(rhodes.equivariant_gottlieb_audit(tg, cap))
    report.extend(rhodes.aspherical_gottlieb_check(tg, cap))
    report.extend(rhodes.oprea_check(tg, _paired_orbit_model(tg, models)))


# ---------------------------------------------------------------------------
# Frozen catalog facts

# Index of each recorded evaluation subgroup in its homotopy group.
_GOLDEN_GOTTLIEB_INDEX: Dict[str, Dict[int, int]] = {
    "S1": {1: 1},
    "S2": {2: INFINITY, 3: INFINITY, 4: 2},
    "S3": {3: 1, 4: 1, 5: 1, 6: 1},
    "S5": {5: 2},
    "RP3": {1: 1, 3: 1, 4: 1, 5: 1, 6: 1},
    "T3": {1: 1},
    "S3xS3xS3": {3: 1, 4: 1},
    "S3modZ4": {1: 1, 3: 1, 4: 1, 5: 1, 6: 1},
    "S3modQ8": {1: 4, 3: 1, 4: 1, 5: 1, 6: 1},
}

# Recorded homotopy groups, degree >= 2.
_GOLDEN_PI: Dict[str, Dict[int, str]] = {
    "S2": {2: "Z", 3: "Z", 4: "Z/2"},
    "S3": {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"},
    "S5": {5: "Z"},
    "RP3": {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"},
    "S3modZ4": {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"},
    "S3modQ8": {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"},
    "S3xS3xS3": {3: "Z^3", 4: "Z/2 x Z/2 x Z/2"},
}

# Fundamental groups by structure or order.
_GOLDEN_PI1: Dict[str, str] = {
    "S1": "Z", "S2": "1", "S3": "1", "S5": "1",
    "RP3": "Z/2", "T3": "Z^3", "S3xS3xS3": "1",
    "S3modZ4": "finite group of order 4",
    "S3modQ8": "finite group of order 8",
}

# G0 orders per transformation model.
_GOLDEN_G0: Dict[str, int] = {
    "rp3-z2z2": 4, "t3-z2": 1, "t3-trivial": 1, "s3xs3xs3-z2": 1,
    "s3-z4": 4, "s3-q8": 8, "s2-z2": 1, "s5-z2": 2,
}

# sigma_1 isomorphism types where tabulation applies.
_GOLDEN_SIGMA1: Dict[str, str] = {
    "rp3-z2z2": "Q8", "s3-z4": "Z/4", "s3-q8": "Q8",
    "s2-z2": "Z/2", "s5-z2": "Z/2", "s3xs3xs3-z2": "Z/2",
}


def _apply_goldens(report: CheckReport, models: Sequence[Model]) -> None:
    by_name = {m.name: m for m in models}

    for name in sorted(_GOLDEN_GOTTLIEB_INDEX):
        x = by_name.get(name)
        if not isinstance(x, SpaceModel):
            continue
        for i in sorted(_GOLDEN_GOTTLIEB_INDEX[name]):
            want = _GOLDEN_GOTTLIEB_INDEX[name][i]
            data = x.gottlieb_at(i)
            if data is None:
                report.add("frozen-gottlieb-index", name, i, FAIL,
                           "recorded evaluation subgroup matches the frozen "
                           "index", "data missing")
                continue
            got = subgroup_index_in(x.pi_at(i), data)
            report.add("frozen-gottlieb-index", name, i,
                       PASS if got == want else FAIL,
                       "recorded evaluation subgroup matches the frozen "
                       "index",
                       f"index {_order_doc(got)}, expected "
                       f"{_order_doc(want)}")

    for name in sorted(_GOLDEN_PI):
        x = by_name.get(name)
        if not isinstance(x, SpaceModel):
            continue
        for i in sorted(_GOLDEN_PI[name]):
            want = _GOLDEN_PI[name][i]
            got = x.pi_at(i).describe()
            report.add("frozen-homotopy-group", name, i,
                       PASS if got == want else FAIL,
                       "recorded homotopy group matches the frozen "
                       "structure", f"{got}, expected {want}")

    for name in sorted(_GOLDEN_PI1):
        x = by_name.get(name)
        if not isinstance(x, SpaceModel):
            continue
        got = x.pi1.describe()
        want = _GOLDEN_PI1[name]
        report.add("frozen-fundamental-group", name, 1,
                   PASS if got == want else FAIL,
                   "recorded fundamental group matches the frozen "
                   "structure", f"{got}, expected {want}")

    for name in sorted(_GOLDEN_G0):
        tg = by_name.get(name)
        if not isinstance(tg, TransformationModel):
            continue
        r = rhodes.compute_g0(tg)
        got = r.subgroup.order if r.subgroup is not None else None
        report.add("frozen-g0-order", name, None,
                   PASS if got == _GOLDEN_G0[name] else FAIL,
                   "derived G0 matches the frozen order",
                   f"order {got}, expected {_GOLDEN_G0[name]}")

    for name in sorted(_GOLDEN_SIGMA1):
        tg = by_name.get(name)
        if not isinstance(tg, TransformationModel):
            continue
        try:
            got = identify_group(rhodes.sigma1_group(tg))
        except ThgError as exc:
            got = f"error: {exc}"
        want = _GOLDEN_SIGMA1[name]
        report.add("frozen-sigma1", name, 1,
                   PASS if got == want else FAIL,
                   "tabulated sigma_1 matches the frozen isomorphism type",
                   f"{got}, expected {want}")

    _golden_orbit_facts(report, by_name)
    _golden_structure_facts(report, by_name)


def _golden_orbit_facts(report: CheckReport, by_name: Dict[str, Model]) -> None:
    tg = by_name.get("t3-z2")
    if isinstance(tg, TransformationModel):
        pi1 = orbit_space(tg).pi1
        if isinstance(pi1, VirtAbelian):
            cz = center_structure(pi1)
            report.add("frozen-orbit-center", "t3-z2", 1,
                       PASS if cz.describe() == "Z" else FAIL,
                       "center of the flat-manifold quotient's fundamental "
                       "group is infinite cyclic",
                       f"{cz.describe()}, expected Z")
            ab = abelianization(pi1)
            report.add("frozen-orbit-abelianization", "t3-z2", 1,
                       PASS if ab.describe() == "Z x Z/2 x Z/2" else FAIL,
                       "abelianized quotient fundamental group matches the "
                       "frozen structure",
                       f"{ab.describe()}, expected Z x Z/2 x Z/2")
        else:
            report.add("frozen-orbit-center", "t3-z2", 1, FAIL,
                       "center of the flat-manifold quotient's fundamental "
                       "group is infinite cyclic",
                       "orbit fundamental group has an unexpected form")

    tg = by_name.get("rp3-z2z2")
    if isinstance(tg, TransformationModel):
        pi1 = orbit_space(tg).pi1
        ok = (isinstance(pi1, CayleyGroup) and pi1.order == 8
              and is_isomorphic(pi1, from_catalog("Q8")))
        report.add("frozen-orbit-pi1", "rp3-z2z2", 1,
                   PASS if ok else FAIL,
                   "quotient fundamental group is the quaternion group",
                   pi1.describe())
        gr = rhodes.gottlieb_rhodes_invariants(tg, 1)
        ok = (not isinstance(gr, Indeterminate)
              and gr.finite_order == 8 and gr.realized is not None
              and not gr.realized.is_abelian()
              and is_isomorphic(gr.realized, from_catalog("Q8")))
        report.add("frozen-gsigma1", "rp3-z2z2", 1, PASS if ok else FAIL,
                   "degree-1 evaluation subgroup realizes as the "
                   "non-abelian quaternion group of order 8", "")


def _golden_structure_facts(report: CheckReport,
                            by_name: Dict[str, Model]) -> None:
    x = by_name.get("S3")
    if isinstance(x, SpaceModel):
        t = fox.tau_invariants(x, 4)
        got = [(label, grp.describe(), mult) for label, grp, mult in t.layers]
        want = [("pi2", "1", 3), ("pi3", "Z", 3), ("pi4", "Z/2", 1)]
        report.add("frozen-tau4", "S3", 4, PASS if got == want else FAIL,
                   "flattened degree-4 tower of the 3-sphere",
                   f"{got}")

    x = by_name.get("S2")
    if isinstance(x, SpaceModel):
        direct = fox.tau_invariants(x, 2).is_direct_product
        report.add("frozen-whitehead-twist", "S2", 2,
                   PASS if direct is False else FAIL,
                   "the nonzero Whitehead square twists the degree-2 tower",
                   f"is_direct_product {direct}, expected False")
        pair = (x.whitehead_pairs or {}).get((2, 2))
        ok = pair is not None and x.pi_at(3).reduce(tuple(pair[0][0])) == (2,)
        report.add("frozen-whitehead-square", "S2", 2, PASS if ok else FAIL,
                   "the Whitehead square of the identity is twice the Hopf "
                   "class", f"{pair}")

    tg = by_name.get("s2-z2")
    if isinstance(tg, TransformationModel):
        auts = tg.action_by_degree.get(2)
        ok = (auts is not None
              and any(not a.is_identity() for a in auts)
              and all(a.free_matrix.entries in (((1,),), ((-1,),))
                      for a in auts))
        report.add("frozen-antipodal-degree", "s2-z2", 2,
                   PASS if ok else FAIL,
                   "the antipodal map acts by degree minus one on an even "
                   "sphere", "")


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thg",
        description="Torus homotopy groups, Rhodes groups, and evaluation "
                    "subgroups over a catalog of finite models.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in VERBS:
        p = sub.add_parser(verb)
        if verb != "list":
            p.add_argument("target", nargs="?", default=None)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--max-n", dest="max_n", type=int, default=None)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--catalog-dir", dest="catalog_dir", default=None)
        if verb in ("verify", "audit"):
            p.add_argument("--all", action="store_true")
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "tau": _cmd_tau,
    "sigma": _cmd_sigma,
    "gtau": _cmd_gtau,
    "gsigma": _cmd_gsigma,
    "g0": _cmd_g0,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "audit": _cmd_audit,
}

_TARGET_VERBS = ("show", "tau", "sigma", "gtau", "gsigma", "g0", "classify")


def run(argv: Sequence[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        if args.verb in _TARGET_VERBS and not args.target:
            raise _Usage(f"{args.verb} needs a target model name")
        try:
            models = _load_models(getattr(args, "catalog_dir", None))
        except ModelError as exc:
            if args.verb in ("verify", "audit"):
                # A catalog that does not even load is a failed check.
                report = CheckReport("verification battery")
                report.add("catalog-load", exc.path or "catalog", None, FAIL,
                           "every catalog document parses and validates",
                           str(exc))
                _emit({"command": {"verb": args.verb},
                       "report": _report_doc(report)},
                      report.lines() + [_verdict_line(report)],
                      args.format, out)
                return EXIT_CHECK_FAILED
            raise
        return _HANDLERS[args.verb](args, models, out)
    except (_Usage, NotFoundError) as exc:
        err.write(f"thg: {exc}\n")
        return EXIT_USAGE
    except ThgError as exc:
        err.write(f"thg: {exc}\n")
        return EXIT_COMPUTATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))
