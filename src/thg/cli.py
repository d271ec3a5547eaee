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

import json
import math
import os
import re
import sys
from types import SimpleNamespace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import fox, rhodes
from .abelian import INFINITY, order_doc
from .errors import BookkeepingError, ModelError, NotFoundError, ThgError
from .fingroup import (CayleyGroup, abelianization as group_abelianization,
                       from_catalog, is_isomorphic)
from .report import CheckReport, FAIL, NOT_APPLICABLE, PASS
from .spacecat import (DEGREE_CAP, Catalog, SpaceModel, TransformationModel,
                       find_model, orbit_space, serialize)
from .tower import TowerSummary, VirtAbelian, abelianization, center_structure
from .verdict import Indeterminate

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3


# ---------------------------------------------------------------------------
# Formatting helpers


def _layer_rows(s: TowerSummary) -> Iterator[Tuple[str, str, int]]:
    """(label, group name, multiplicity) per layer, each group described once."""
    distinct = dict(zip(map(id, s.groups), s.groups))  # by id: a group hashes slowly
    named = {grp: grp.describe() for grp in set(distinct.values())}
    names = {key: named[grp] for key, grp in distinct.items()}
    labels = (f"{s.prefix}{d}" for d in range(s.first, s.first + len(s.groups)))
    return zip(labels, map(names.__getitem__, map(id, s.groups)), s.mults)


def _summary_doc(s: TowerSummary) -> dict:
    return {"base": s.base_name_or_order, "is_direct_product": s.is_direct_product,
            "layers": [{"label": label, "group": name, "multiplicity": mult}
                       for label, name, mult in _layer_rows(s)],
            "order": order_doc(s.finite_order)}


def _summary_lines(head: str, s: TowerSummary) -> List[str]:
    shape = "direct product" if s.is_direct_product else "iterated extension"
    return [f"{head}: order {order_doc(s.finite_order)}, {shape}",
            f"  base: {s.base_name_or_order}",
            *(f"  {label} ^ {mult}: {name}" for label, name, mult in _layer_rows(s))]


def _entry_doc(e) -> dict:
    return {"check": e.check, "target": e.target, "n": e.n,
            "status": e.status, "rule": e.rule, "detail": e.detail}


def _report_doc(r: CheckReport) -> dict:
    return {"title": r.title, "entries": [_entry_doc(e) for e in r.entries],
            "counts": r.counts(), "passed": r.passed}


def identify_group(g: CayleyGroup) -> str:
    """Readable isomorphism-type label for a small group."""
    if g.is_abelian():
        return group_abelianization(g).describe()
    if g.order == 8:
        for name in ("Q8", "D4"):
            if is_isomorphic(g, from_catalog(name)):
                return name
    return f"non-abelian group of order {g.order}"


def _emit(args, out, doc: Callable[[], dict],
          text_lines: Callable[[], List[str]]) -> int:
    """Builds and writes only the rendering args.format asks for."""
    if args.format == "json":  # each document is a tree built for this request
        out.write(json.dumps(doc(), indent=2, sort_keys=True,
                             check_circular=False) + "\n")
    else:
        out.write("\n".join(text_lines()) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Usage


class _Usage(Exception):
    pass


# The verbs that grade a catalog: they take --all, and a catalog that fails
# to load is their failed check.
_BATTERY = ("verify", "audit")


def _degrees(args, default: int = 1) -> List[int]:
    """The degrees a verb asks for: [N] for --n N, 1..N for --max-n N,
    1..default otherwise.  The battery verbs take the last as their bound."""
    if args.n is not None and args.max_n is not None:
        raise _Usage("--n and --max-n are mutually exclusive")
    for flag, value in (("--n", args.n), ("--max-n", args.max_n)):
        if value is not None and value < 1:
            raise _Usage(f"{flag} must be at least 1")
        if value is not None and value > DEGREE_CAP:
            raise _Usage(f"{flag} must be at most {DEGREE_CAP}")
    if args.n is not None:
        return [args.n]
    return list(range(1, (args.max_n or default) + 1))


# ---------------------------------------------------------------------------
# Verbs


def _list_row(m) -> dict:
    if isinstance(m, SpaceModel):
        return {"name": m.name, "kind": "space", "truncation": m.truncation,
                "aspherical": m.aspherical, "pi1": m.pi1.describe()}
    return {"name": m.name, "kind": "transformation", "space": m.space.name,
            "group_order": m.group.order, "free": m.free}


def _list_line(m) -> str:
    if isinstance(m, SpaceModel):
        extra = "aspherical, " if m.aspherical else ""
        return (f"{m.name:12s} space           {extra}truncation "
                f"{m.truncation}, pi1 = {m.pi1.describe()}")
    free = "free" if m.free else "not free"
    return (f"{m.name:12s} transformation  group of order "
            f"{m.group.order} on {m.space.name}, {free}")


def _cmd_list(args, _, catalog, out) -> int:
    models = list(catalog)
    return _emit(args, out, lambda: {"command": {"verb": "list"},
                                     "models": list(map(_list_row, models))},
                 lambda: list(map(_list_line, models)))


def _cmd_show(args, m, catalog, out) -> int:
    out.write(serialize(m))
    return EXIT_OK


def _emit_towers(args, out, target: str, rows) -> int:
    """The output of tau, sigma, gtau and gsigma, one tower per degree:
    rows holds (n, summary or Indeterminate, text head, JSON fields, text
    lines), the fields and lines added under the summary."""
    def doc():
        return {"command": {"verb": args.verb, "target": target}, "results": [
            {"n": n, "indeterminate": s.reason} if isinstance(s, Indeterminate)
            else {"n": n, "summary": _summary_doc(s), **fields}
            for n, s, _, fields, _ in rows]}

    def text_lines():
        return [line for _, s, head, _, extra in rows for line in (
            [f"{head}: indeterminate ({s.reason})"]
            if isinstance(s, Indeterminate)
            else [*_summary_lines(head, s), *extra])]
    return _emit(args, out, doc, text_lines)


def _cmd_tau(args, x, catalog, out) -> int:
    return _emit_towers(args, out, x.name, [
        (n, fox.tau_invariants(x, n), f"tau_{n}({x.name})", {}, ())
        for n in _degrees(args)])


def _cmd_sigma(args, tg, catalog, out) -> int:
    rows = []
    for n in _degrees(args):
        s = rhodes.sigma_invariants(tg, n)
        tau_order = fox.tau_invariants(tg.space, n).finite_order
        book = {"group_order": tg.group.order,
                "tau_order": order_doc(tau_order),
                "product": order_doc(tg.group.order * tau_order)}
        rows.append((n, s, f"sigma_{n}({tg.name})",
                     {"extension_bookkeeping": book},
                     [f"  extension bookkeeping: {tg.group.order} * "
                      f"{book['tau_order']} = {book['product']}"]))
    return _emit_towers(args, out, tg.name, rows)


def _cmd_gtau(args, x, catalog, out) -> int:
    return _emit_towers(args, out, x.name, [
        (n, fox.gottlieb_fox_invariants(x, n), f"Gtau_{n}({x.name})", {}, ())
        for n in _degrees(args)])


def _cmd_gsigma(args, tg, catalog, out) -> int:
    rows = []
    for n in _degrees(args):
        r = rhodes.gottlieb_rhodes_invariants(tg, n)
        head = f"Gsigma_{n}({tg.name})"
        if isinstance(r, Indeterminate):
            rows.append((n, r, head, {}, ()))
            continue
        fields = {"g0": {"order": r.g0.subgroup.order,
                         "members": list(r.g0.members())}}
        extra = []
        if r.realized is not None:
            fields["realized"] = {"group": identify_group(r.realized),
                                  "order": r.realized.order,
                                  "abelian": r.realized.is_abelian()}
            extra.append(f"  realized: {fields['realized']['group']} "
                         f"(order {r.realized.order}, abelian: "
                         f"{str(r.realized.is_abelian()).lower()})")
        rows.append((n, r.summary, head, fields, extra))
    return _emit_towers(args, out, tg.name, rows)


def _cmd_g0(args, tg, catalog, out) -> int:
    r = rhodes.compute_g0(tg)
    order = r.subgroup.order if r.subgroup is not None else None
    return _emit(args, out, lambda: {
        "command": {"verb": "g0", "target": tg.name},
        "fully_determined": r.fully_determined(),
        "members": list(r.members()), "order": order,
        "per_element": {name: {"verdict": v, "rule": rule}
                        for name, (v, rule) in r.per_element_verdict.items()}},
        lambda: [f"G0({tg.name}): order {'?' if order is None else order}, "
                 f"members {{{', '.join(r.members())}}}",
                 *(f"  {name}: {r.per_element_verdict[name][0]} "
                   f"({r.per_element_verdict[name][1]})"
                   for name in tg.group.element_names)])


# The per-degree verdicts of classify: field name and display name.
_VERDICTS = (("gottlieb", "Gottlieb"), ("gottlieb_fox", "Gottlieb-Fox"),
             ("gottlieb_rhodes", "Gottlieb-Rhodes"),
             ("equivariant_gottlieb", "equivariant"))


def _cmd_classify(args, tg, catalog, out) -> int:
    rep = rhodes.classify(tg, _degrees(args, 4)[-1])
    rows = [(d.n, [(key, word, getattr(d, key)) for key, word in _VERDICTS])
            for d in rep.per_degree]
    space_level = {key: {"verdict": rv.label(), "rule": rv.rule}
                   for key, rv in sorted(rep.space_level.items())}
    return _emit(args, out, lambda: {
        "command": {"verb": "classify", "target": tg.name,
                    "max_n": rep.max_n},
        "per_degree": [{"n": n, **{key: v.label() for key, _, v in verdicts},
                        "rules": {key: v.rule for key, _, v in verdicts}}
                       for n, verdicts in rows],
        "space_level": space_level,
        "consistency": _report_doc(rep.consistency)},
        lambda: [f"classification of {tg.name} through n = {rep.max_n}",
                 *(f"  n={n}: " + ", ".join(f"{word} {v.label()}"
                                           for _, word, v in verdicts)
                   for n, verdicts in rows),
                 *(f"  space-level {key}: {entry['verdict']}"
                   for key, entry in space_level.items())])


def _cmd_audit(args, target, catalog, out) -> int:
    targets = [target] if target is not None else [
        m for m in catalog if isinstance(m, TransformationModel)]
    max_n = _degrees(args, 4)[-1]
    report = CheckReport("implication audits")
    for tg in targets:
        if not _not_free(report, tg):
            _audit(report, tg, catalog, _model_cap(tg.space, max_n))
    return _emit_report(report, args, out, max_n)


def _not_free(report: CheckReport, tg: TransformationModel) -> bool:
    if not tg.free:  # verify and audit grade a non-free action alike
        report.add("action-battery", tg.name, None, NOT_APPLICABLE,
                   "transformation checks need a free action", "the action is not free")
    return not tg.free


def _audit(report: CheckReport, tg: TransformationModel, catalog: Catalog,
           cap: int) -> None:
    """The implication audits, which both audit and verify run."""
    report.extend(rhodes.equivariant_gottlieb_audit(tg, cap))
    report.extend(rhodes.aspherical_gottlieb_check(tg, cap))
    report.extend(rhodes.oprea_check(tg, _paired_orbit_model(tg, catalog)))


def _emit_report(report: CheckReport, args, out,
                 max_n: Optional[int] = None) -> int:
    """The report document of verify and audit: exit 3 on any failure.
    Without max_n it is the catalog-load failure, which names the verb
    only."""
    command = {"verb": args.verb}
    if max_n is not None:
        command.update(target="--all" if args.all else args.target,
                       max_n=max_n)
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(report.counts().items()))
    verdict = f"{'PASSED' if report.passed else 'FAILED'} ({counts})"
    _emit(args, out, lambda: {"command": command, "report": _report_doc(report)},
          lambda: report.lines() + [verdict])
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _model_cap(x: SpaceModel, max_n: int) -> int:
    return max_n if x.aspherical else min(max_n, x.truncation)


def _paired_orbit_model(tg: TransformationModel,
                        catalog: Catalog) -> Optional[SpaceModel]:
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
    m = catalog.get(f"S{tg.sphere_dimension}mod{group_spec['catalog']}")
    return m if isinstance(m, SpaceModel) else None


# ---------------------------------------------------------------------------
# The verify battery


def _cmd_verify(args, target, catalog, out) -> int:
    max_n = _degrees(args, 4)[-1]
    if args.all:
        spaces = [m for m in catalog if isinstance(m, SpaceModel)]
        actions = [m for m in catalog if isinstance(m, TransformationModel)]
    elif isinstance(target, SpaceModel):
        spaces, actions = [target], []
    else:
        spaces, actions = [target.space], [target]
    report = build_verify_report(spaces, actions, catalog, max_n,
                                 include_goldens=args.all)
    return _emit_report(report, args, out, max_n)


def build_verify_report(spaces: Sequence[SpaceModel],
                        actions: Sequence[TransformationModel],
                        catalog: Catalog, max_n: int,
                        include_goldens: bool) -> CheckReport:
    """The full consistency battery over the given models.

    Identities are graded by re-deriving both sides; the frozen-fact
    table pins the catalog's recorded values (homotopy data, evaluation
    subgroups, extension structure) against recomputation, so a single
    edited catalog value flips the battery to failure.
    """
    report = CheckReport("verification battery")

    # The third route: math.comb grades fox's multiplicative rows (through
    # multiplicities) and its additions-only column, neither built from it.
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
            report.extend(fox.fox_sequence_check(x, cap))
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
        if _not_free(report, tg):
            continue
        cap = _model_cap(tg.space, max_n)
        try:
            report.extend(rhodes.rhodes_split_check(tg, cap))
            _audit(report, tg, catalog, cap)
        except BookkeepingError as exc:
            report.add("action-battery", tg.name, None, FAIL,
                       "internal bookkeeping agreement", str(exc))
        except ThgError as exc:
            report.add("action-battery", tg.name, None, FAIL,
                       "transformation checks run to completion", str(exc))

    if include_goldens:
        for check, kind, name, n, rule, probe in _frozen_facts():
            m = catalog.get(name)
            if isinstance(m, kind):
                try:
                    ok, detail = probe(m)
                except ThgError as exc:  # a probe that cannot run fails its fact
                    ok, detail = False, str(exc)
                report.add(check, name, n, PASS if ok else FAIL, rule, detail)
    return report


# ---------------------------------------------------------------------------
# Frozen catalog facts
#
# Each probe takes the model and returns (ok, detail).  A fact whose model
# is missing from the catalog, or is of the other kind, is not graded.


def _expect(get, want, prefix: str = ""):
    """The probe that get(model) equals want."""
    def probe(m):
        got = get(m)
        return got == want, f"{prefix}{got}, expected {want}"
    return probe


def _gottlieb_index(i: int, want: int):
    """The probe that the recorded degree-i evaluation subgroup has index
    want in pi_i."""
    def probe(x: SpaceModel):
        got, _ = x.gottlieb_entry(i)
        if got is None:
            return False, "data missing"
        return got == want, (f"index {order_doc(got)}, "
                             f"expected {order_doc(want)}")
    return probe


def _g0_order(tg: TransformationModel) -> Optional[int]:
    r = rhodes.compute_g0(tg)
    return r.subgroup.order if r.subgroup is not None else None


def _sigma1_type(tg: TransformationModel) -> str:
    try:
        return identify_group(rhodes.sigma1_group(tg))
    except ThgError as exc:
        return f"error: {exc}"


def _flat_orbit(invariant, want: str):
    """The probe that an invariant of the orbit space's fundamental group,
    an extension by a free layer, has the structure want."""
    def probe(tg: TransformationModel):
        pi1 = orbit_space(tg).pi1
        if not isinstance(pi1, VirtAbelian):
            return False, "orbit fundamental group has an unexpected form"
        got = invariant(pi1).describe()
        return got == want, f"{got}, expected {want}"
    return probe


def _orbit_pi1_is_q8(tg: TransformationModel):
    pi1 = orbit_space(tg).pi1
    return (isinstance(pi1, CayleyGroup) and identify_group(pi1) == "Q8",
            pi1.describe())


def _gsigma1_is_q8(tg: TransformationModel):
    gr = rhodes.gottlieb_rhodes_invariants(tg, 1)
    return (not isinstance(gr, Indeterminate) and gr.summary.finite_order == 8
            and gr.realized is not None
            and identify_group(gr.realized) == "Q8"), ""


def _tau4_layers(x: SpaceModel):
    got = list(_layer_rows(fox.tau_invariants(x, 4)))
    want = [("pi2", "1", 3), ("pi3", "Z", 3), ("pi4", "Z/2", 1)]
    return got == want, f"{got}"


def _whitehead_square(x: SpaceModel):
    pair = (x.whitehead_pairs or {}).get((2, 2))
    return (pair is not None
            and x.pi_at(3).reduce(tuple(pair[0][0])) == (2,)), f"{pair}"


def _antipodal_degree(tg: TransformationModel):
    auts = tg.action_by_degree.get(2)
    return (auts is not None
            and any(not a.is_identity() for a in auts)
            and all(a.free_matrix.entries in (((1,),), ((-1,),))
                    for a in auts)), ""


def _frozen_facts() -> tuple:
    """(check id, model kind, model, degree, rule, probe) rows, in report
    order.  Built when graded, so that the probes call the functions bound
    in this module then, wrappers a profiler installed included."""
    return (
        *(("frozen-gottlieb-index", SpaceModel, name, i,
           "recorded evaluation subgroup matches the frozen index",
           _gottlieb_index(i, want))
          for name, wants in (
              ("RP3", {1: 1, 3: 1, 4: 1, 5: 1, 6: 1}),
              ("S1", {1: 1}),
              ("S2", {2: INFINITY, 3: INFINITY, 4: 2}),
              ("S3", {3: 1, 4: 1, 5: 1, 6: 1}),
              ("S3modQ8", {1: 4, 3: 1, 4: 1, 5: 1, 6: 1}),
              ("S3modZ4", {1: 1, 3: 1, 4: 1, 5: 1, 6: 1}),
              ("S3xS3xS3", {3: 1, 4: 1}),
              ("S5", {5: 2}),
              ("T3", {1: 1}))
          for i, want in wants.items()),
        *(("frozen-homotopy-group", SpaceModel, name, i,
           "recorded homotopy group matches the frozen structure",
           _expect(lambda x, i=i: x.pi_at(i).describe(), want))
          for name, wants in (
              ("RP3", {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"}),
              ("S2", {2: "Z", 3: "Z", 4: "Z/2"}),
              ("S3", {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"}),
              ("S3modQ8", {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"}),
              ("S3modZ4", {3: "Z", 4: "Z/2", 5: "Z/2", 6: "Z/12"}),
              ("S3xS3xS3", {3: "Z^3", 4: "Z/2 x Z/2 x Z/2"}),
              ("S5", {5: "Z"}))
          for i, want in wants.items()),
        *(("frozen-fundamental-group", SpaceModel, name, 1,
           "recorded fundamental group matches the frozen structure",
           _expect(lambda x: x.pi1.describe(), want))
          for name, want in (
              ("RP3", "Z/2"), ("S1", "Z"), ("S2", "1"), ("S3", "1"),
              ("S3modQ8", "finite group of order 8"),
              ("S3modZ4", "finite group of order 4"),
              ("S3xS3xS3", "1"), ("S5", "1"), ("T3", "Z^3"))),
        *(("frozen-g0-order", TransformationModel, name, None,
           "derived G0 matches the frozen order",
           _expect(_g0_order, want, "order "))
          for name, want in (
              ("rp3-z2z2", 4), ("s2-z2", 1), ("s3-q8", 8), ("s3-z4", 4),
              ("s3xs3xs3-z2", 1), ("s5-z2", 2), ("t3-trivial", 1),
              ("t3-z2", 1))),
        *(("frozen-sigma1", TransformationModel, name, 1,
           "tabulated sigma_1 matches the frozen isomorphism type",
           _expect(_sigma1_type, want))
          for name, want in (
              ("rp3-z2z2", "Q8"), ("s2-z2", "Z/2"), ("s3-q8", "Q8"),
              ("s3-z4", "Z/4"), ("s3xs3xs3-z2", "Z/2"), ("s5-z2", "Z/2"))),
        ("frozen-orbit-center", TransformationModel, "t3-z2", 1,
         "center of the flat-manifold quotient's fundamental group is "
         "infinite cyclic", _flat_orbit(center_structure, "Z")),
        ("frozen-orbit-abelianization", TransformationModel, "t3-z2", 1,
         "abelianized quotient fundamental group matches the frozen structure",
         _flat_orbit(abelianization, "Z x Z/2 x Z/2")),
        ("frozen-orbit-pi1", TransformationModel, "rp3-z2z2", 1,
         "quotient fundamental group is the quaternion group",
         _orbit_pi1_is_q8),
        ("frozen-gsigma1", TransformationModel, "rp3-z2z2", 1,
         "degree-1 evaluation subgroup realizes as the non-abelian quaternion "
         "group of order 8", _gsigma1_is_q8),
        ("frozen-tau4", SpaceModel, "S3", 4,
         "flattened degree-4 tower of the 3-sphere", _tau4_layers),
        ("frozen-whitehead-twist", SpaceModel, "S2", 2,
         "the nonzero Whitehead square twists the degree-2 tower",
         _expect(lambda x: fox.tau_invariants(x, 2).is_direct_product, False,
                 "is_direct_product ")),
        ("frozen-whitehead-square", SpaceModel, "S2", 2,
         "the Whitehead square of the identity is twice the Hopf class",
         _whitehead_square),
        ("frozen-antipodal-degree", TransformationModel, "s2-z2", 2,
         "the antipodal map acts by degree minus one on an even sphere",
         _antipodal_degree),
    )


# ---------------------------------------------------------------------------
# Entry point

# Each long option: the attribute it sets, and how its value is read: int,
# a tuple of the allowed values, str, or None for a flag that takes none.
# An option may be abbreviated to any unique prefix and given as
# --opt=value; the last occurrence wins.
_OPTIONS = {
    "--n": ("n", int),
    "--max-n": ("max_n", int),
    "--all": ("all", None),
    "--format": ("format", ("text", "json")),
    "--catalog-dir": ("catalog_dir", str),
    "--help": (None, None),
}

_HELP = """\
usage: thg [-h] [--n N] [--max-n N] [--all] [--format {text,json}]
           [--catalog-dir DIR]
           %(verbs)s [target]

Torus homotopy groups, Rhodes groups, and evaluation subgroups over a catalog
of finite models.

positional arguments:
  %(verbs)s
  target                a catalog model name

options:
  -h, --help            show this help message and exit
  --n N                 degree N only
  --max-n N             degrees 1..N
  --all                 every catalog model (verify and audit only)
  --format {text,json}  output format (default: text)
  --catalog-dir DIR     a directory of model documents (default:
                        $THG_CATALOG_DIR, else the built-in catalog)

Options may come before or after the target, may be written --opt=value,
and may be abbreviated to a unique prefix (--max 3); the last of a
repeated option wins.
"""

# A negative number is a value, never an option.
_NEGATIVE = re.compile(r"-\d+|-\d*\.\d+")


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-" and not _NEGATIVE.fullmatch(arg)


def _choose(label: str, value: str, choices: Sequence[str]) -> str:
    if value not in choices:
        raise _Usage(f"argument {label}: invalid choice: {value!r} (choose "
                     f"from {', '.join(map(repr, choices))})")
    return value


def _read(option: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise _Usage(f"argument {option}: invalid int value: "
                         f"{text!r}") from None
    return text if kind is str else _choose(option, text, kind)


def _long_option(flag: str) -> Optional[str]:
    """The option that flag names, whole or as a unique prefix."""
    if flag in _OPTIONS:
        return flag
    hits = [o for o in _OPTIONS if o.startswith(flag)]
    return hits[0] if flag.startswith("--") and len(hits) == 1 else None


def _parse(argv: Sequence[str], out) -> Optional[SimpleNamespace]:
    """The one parser: a verb, an optional target and the shared options,
    in any order, and the rules on which verb takes what.  None after
    --help, which wins over every usage error but a bad option value
    before it."""
    args = SimpleNamespace(verb=None, target=None, n=None, max_n=None,
                           all=False, format="text", catalog_dir=None)
    positionals, extra = [], []  # extra: what no rule reads, in argv order

    def positional(arg: str) -> None:
        (positionals if len(positionals) < 2 else extra).append(arg)

    rest = iter(argv)
    for arg in rest:
        if arg == "--":  # everything after it is positional
            for arg in rest:
                positional(arg)
        elif not _is_option(arg):
            positional(arg)
        else:
            flag, eq, text = arg.partition("=")
            option = _long_option(flag)
            if arg == "-h" or option == "--help":
                out.write(_HELP % {"verbs": "{%s}" % ",".join(VERBS)})
                return None
            if option is None:
                extra.append(arg)
                continue
            attr, kind = _OPTIONS[option]
            if kind is None:
                if eq:
                    raise _Usage(f"argument {option}: ignored explicit "
                                 f"argument {text!r}")
                setattr(args, attr, True)
                continue
            if not eq:
                text = next(rest, None)
                if text is None or _is_option(text):
                    raise _Usage(f"argument {option}: expected one argument")
            setattr(args, attr, _read(option, kind, text))
    if not positionals:
        raise _Usage("the following arguments are required: verb")
    args.verb = _choose("verb", positionals[0], VERBS)
    args.target = positionals[1] if len(positionals) > 1 else None
    if extra:
        raise _Usage(f"unrecognized arguments: {' '.join(extra)}")
    battery = args.verb in _BATTERY
    if args.all and not battery:
        raise _Usage("--all belongs to verify and audit only")
    if args.all and args.target:
        raise _Usage("--all excludes a target")
    if args.verb == "list" and args.target:
        raise _Usage("list takes no target")
    if args.verb != "list" and not args.target and not args.all:
        raise _Usage(f"{args.verb} needs a target model "
                     + ("or --all" if battery else "name"))
    if args.verb in ("list", "show", "g0") and (
            args.n is not None or args.max_n is not None):
        raise _Usage(f"{args.verb} takes no --n or --max-n")
    _degrees(args)  # bad degree flags fail before any model is built
    return args


# Each verb's handler and the kind of model its target must be (None: any).
_HANDLERS = {
    "list": (_cmd_list, None),
    "show": (_cmd_show, None),
    "tau": (_cmd_tau, SpaceModel),
    "sigma": (_cmd_sigma, TransformationModel),
    "gtau": (_cmd_gtau, SpaceModel),
    "gsigma": (_cmd_gsigma, TransformationModel),
    "g0": (_cmd_g0, TransformationModel),
    "classify": (_cmd_classify, TransformationModel),
    "verify": (_cmd_verify, None),
    "audit": (_cmd_audit, TransformationModel),
}
VERBS = tuple(_HANDLERS)

_WRONG_KIND = {
    SpaceModel: "is a transformation model; this verb needs a space (try "
                "sigma/gsigma/g0)",
    TransformationModel: "is a space model; this verb needs a transformation "
                         "(a group action)",
}


def run(argv: Sequence[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = _parse(argv, out)
        if args is None:
            return EXIT_OK
        path = args.catalog_dir or os.environ.get("THG_CATALOG_DIR")
        try:
            catalog = Catalog(path) if path else Catalog.builtin()
            target = None
            if args.target:
                target = find_model(args.target, catalog)
            else:
                list(catalog)  # a verb without a target builds every model
        except ModelError as exc:
            if args.verb not in _BATTERY:
                raise
            # A catalog that does not even load is a failed check.
            report = CheckReport("verification battery")
            report.add("catalog-load", exc.path or "catalog", None, FAIL,
                       "every catalog document parses and validates",
                       str(exc))
            return _emit_report(report, args, out)
        handler, kind = _HANDLERS[args.verb]
        if kind and target is not None and not isinstance(target, kind):
            raise _Usage(f"{args.target} {_WRONG_KIND[kind]}")
        # The loader's warnings, under the name of the space they belong
        # to: the target's space, or every space when the verb reads the
        # whole catalog.
        shown = ([target] if isinstance(target, SpaceModel) else
                 [target.space] if target is not None else
                 [m for m in catalog if isinstance(m, SpaceModel)])
        for m in shown:
            for text in m.warnings:
                err.write(f"thg: warning: {m.name}: {text}\n")
        return handler(args, target, catalog, out)
    except (_Usage, NotFoundError) as exc:
        err.write(f"thg: {exc}\n")
        return EXIT_USAGE
    except ThgError as exc:
        err.write(f"thg: {exc}\n")
        return EXIT_COMPUTATION


def main() -> None:
    sys.exit(run(sys.argv[1:]))
