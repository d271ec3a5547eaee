"""A tracer installed into thg from outside, for the per-layer metrics.

``Tracer.install`` wraps the public functions named in ``TARGETS`` and
rebinds every name in every loaded ``thg.*`` module that points at one
of them (``orbit_space`` alone is bound in spacecat, rhodes and cli), and
wraps the ``__post_init__`` validators for the ``init`` metrics.  Each
wrapped call is a span: start, end, parent span and the request id.
Self time is a span's duration minus the part its wrapped children
cover.  Element arithmetic (``FgAbelian.reduce``/``add``,
``LayerAut.apply``, ``VirtAbelian.multiply``) is deliberately not
wrapped: its cost stays in the caller's self time.

Spans are kept in memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Dict, List, Tuple

CALLS, SELF, INCL = "calls", "self_s", "incl_s"

# (metric prefix, module, attribute or Class.attribute, reported stats)
TARGETS: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("abelian.snf_diagonal", "thg.abelian", "snf_diagonal", (CALLS, SELF)),
    ("abelian.smith_normal_form", "thg.abelian", "smith_normal_form",
     (CALLS, SELF)),
    ("abelian.det", "thg.abelian", "det", (CALLS, SELF)),
    ("abelian.cokernel", "thg.abelian", "cokernel", (CALLS, INCL)),
    ("abelian.kernel_lattice", "thg.abelian", "kernel_lattice", (CALLS, INCL)),
    ("abelian.solve_integer", "thg.abelian", "solve_integer", (CALLS, INCL)),
    ("abelian.subgroup_structure", "thg.abelian", "subgroup_structure",
     (CALLS, INCL)),
    ("fingroup.CayleyGroup.init", "thg.fingroup", "CayleyGroup.__post_init__",
     (CALLS, SELF, "order_sum")),
    ("fingroup.is_isomorphic", "thg.fingroup", "is_isomorphic", (CALLS, INCL)),
    ("fingroup.abelianization", "thg.fingroup", "abelianization",
     (CALLS, INCL)),
    ("fingroup.find_isomorphism", "thg.fingroup", "find_isomorphism",
     (CALLS, SELF)),
    ("fingroup.center", "thg.fingroup", "center", (CALLS, SELF)),
    ("fingroup.abelian_structure_by_counting", "thg.fingroup",
     "abelian_structure_by_counting", (CALLS, SELF)),
    ("tower.VirtAbelian.init", "thg.tower", "VirtAbelian.__post_init__",
     (CALLS, SELF)),
    ("tower.LayerAut.init", "thg.tower", "LayerAut.__post_init__",
     (CALLS, SELF)),
    ("tower.abelianization", "thg.tower", "abelianization", (CALLS, SELF)),
    ("tower.center_structure", "thg.tower", "center_structure", (CALLS, SELF)),
    ("tower.to_cayley", "thg.tower", "to_cayley", (CALLS, SELF, "order_sum")),
    ("spacecat.builtin_catalog", "thg.spacecat", "builtin_catalog",
     (CALLS, SELF)),
    ("spacecat.load_model", "thg.spacecat", "load_model", (CALLS, SELF)),
    ("spacecat.orbit_space", "thg.spacecat", "orbit_space",
     (CALLS, SELF, "useful_ratio")),
    ("spacecat.subgroup_index_in", "thg.spacecat", "subgroup_index_in",
     (CALLS, INCL)),
    ("spacecat.subgroup_structure_in", "thg.spacecat", "subgroup_structure_in",
     (CALLS, INCL)),
    ("fox.tau_invariants", "thg.fox", "tau_invariants",
     (CALLS, SELF, "useful_ratio")),
    ("fox.recursive_tau_multiplicity", "thg.fox", "recursive_tau_multiplicity",
     (CALLS, SELF)),
    ("fox.gottlieb_fox_invariants", "thg.fox", "gottlieb_fox_invariants",
     (CALLS, SELF)),
    ("fox.whitehead_gottlieb_conflicts", "thg.fox",
     "whitehead_gottlieb_conflicts", (CALLS, SELF)),
    ("fox.fox_sequence_check", "thg.fox", "fox_sequence_check", (CALLS, INCL)),
    ("fox.gottlieb_fox_crosscheck", "thg.fox", "gottlieb_fox_crosscheck",
     (CALLS, INCL)),
    ("rhodes.sigma_invariants", "thg.rhodes", "sigma_invariants",
     (CALLS, SELF)),
    ("rhodes.gottlieb_rhodes_invariants", "thg.rhodes",
     "gottlieb_rhodes_invariants", (CALLS, SELF)),
    ("rhodes.compute_g0", "thg.rhodes", "compute_g0",
     (CALLS, SELF, "useful_ratio")),
    ("rhodes.sigma1_group", "thg.rhodes", "sigma1_group", (CALLS, INCL)),
    ("rhodes.classify", "thg.rhodes", "classify", (CALLS, INCL)),
    ("rhodes.rhodes_split_check", "thg.rhodes", "rhodes_split_check",
     (CALLS, INCL)),
    ("rhodes.equivariant_gottlieb_audit", "thg.rhodes",
     "equivariant_gottlieb_audit", (CALLS, INCL)),
    ("report.CheckReport.add", "thg.report", "CheckReport.add", (CALLS,)),
    ("cli.run", "thg.cli", "run", (CALLS, SELF)),
    ("cli.build_verify_report", "thg.cli", "build_verify_report",
     (CALLS, INCL)),
]

_UNITS = {CALLS: "count", SELF: "s", INCL: "s", "order_sum": "count",
          "useful_ratio": "ratio"}
# Extra per-layer metrics not tied to one wrapped function.
EXTRA_METRICS = [
    ("abelian.snf.cells", "count", "lower"),
    ("abelian.snf.max_bits", "bits", "lower"),
    ("abelian.snf_probe.timeouts", "count", "lower"),
    ("tower.abelianization.order64_s", "s", "lower"),
    ("cli.out_bytes", "bytes", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for prefix, _, _, stats in TARGETS:
        for stat in stats:
            # Fewer report entries would mean fewer checks graded.
            better = ("higher" if stat == "useful_ratio"
                      or prefix == "report.CheckReport.add" else "lower")
            out.append((f"{prefix}.{stat}", _UNITS[stat], better))
    return out + EXTRA_METRICS


def _arg_key(value):
    return getattr(value, "name", None) or id(value)


def _snf_extra(stats: dict, args, result) -> None:
    m = args[0]
    stats["cells"] = stats.get("cells", 0) + m.rows * m.cols
    if isinstance(result, tuple):       # (diag, left, right)
        values = list(result[0])
        for t in result[1:]:
            for row in t.entries:
                values.extend(row)
    else:
        values = result
    bits = max((abs(v).bit_length() for v in values), default=0)
    stats["max_bits"] = max(stats.get("max_bits", 0), bits)


def _order_of_arg(stats, args, result):
    stats["order_sum"] = stats.get("order_sum", 0) + args[0].order


def _order_of_result(stats, args, result):
    stats["order_sum"] = stats.get("order_sum", 0) + result.order


def _distinct(nargs):
    def extra(stats, args, result):
        stats.setdefault("keys", set()).add(
            tuple(_arg_key(a) for a in args[:nargs]))
    return extra


_EXTRAS = {
    "abelian.snf_diagonal": _snf_extra,
    "abelian.smith_normal_form": _snf_extra,
    "fingroup.CayleyGroup.init": _order_of_arg,
    "tower.to_cayley": _order_of_result,
    "spacecat.orbit_space": _distinct(1),
    "fox.tau_invariants": _distinct(2),
    "rhodes.compute_g0": _distinct(1),
}


class Tracer:
    """Spans and per-function counters for one request at a time."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self._bindings: List[Tuple[object, str, object]] = []
        self._originals: Dict[str, object] = {}
        self.reset(None)

    def reset(self, request_id) -> None:
        self.request_id = request_id
        self.stats: Dict[str, dict] = {p: {"calls": 0, "incl": 0.0, "self": 0.0}
                                       for p, _, _, _ in TARGETS}
        self.spans: List[tuple] = []
        self._stack: List[list] = []
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for prefix, modname, attr, _ in TARGETS:
            mod = importlib.import_module(modname)
            owner, name = mod, attr
            if "." in attr:
                cls_name, name = attr.split(".")
                owner = getattr(mod, cls_name)
            original = owner.__dict__[name] if owner is not mod else getattr(mod, name)
            self._originals[prefix] = original
            wrapper = self._wrap(prefix, original, _EXTRAS.get(prefix))
            if owner is not mod:
                self._rebind(owner, name, wrapper)
                continue
            for other in [m for n, m in sys.modules.items()
                          if (n == "thg" or n.startswith("thg.")) and m]:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._rebind(other, key, wrapper)

    def _rebind(self, owner, name, value) -> None:
        self._bindings.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    def original(self, prefix: str):
        return self._originals[prefix]

    def _wrap(self, prefix, fn, extra):
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            tracer._next_id += 1
            frame = [clock(), 0.0, tracer._next_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                incl = end - frame[0]
                stats = tracer.stats[prefix]
                stats["calls"] += 1
                stats["incl"] += incl
                stats["self"] += incl - frame[1]
                if stack:
                    stack[-1][1] += incl
                if tracer.keep_spans:
                    tracer.spans.append((frame[2], stack[-1][2] if stack else 0,
                                         prefix, frame[0], end))
            if extra is not None:
                extra(tracer.stats[prefix], args, result)
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Raw counters of the current request, JSON-ready."""
        out = {}
        for prefix, s in self.stats.items():
            out[prefix] = {k: (len(v) if k == "keys" else v)
                           for k, v in s.items()}
        return out

    def span_records(self) -> List[dict]:
        return [{"request": self.request_id, "span": sid, "parent": parent,
                 "name": name, "start": start, "end": end}
                for sid, parent, name, start, end in self.spans]


def self_test(argvs: List[List[str]]) -> Dict[str, Tuple[int, int]]:
    """Tracer call counts against cProfile's on the same CLI requests.

    Returns {prefix: (tracer calls, cProfile calls)} for every target
    where the two differ; empty means they agree everywhere.
    """
    import cProfile
    import io
    import pstats

    from thg import cli

    def run_all():
        for argv in argvs:
            cli.run(argv, out=io.StringIO(), err=io.StringIO())

    tracer = Tracer(keep_spans=False)
    tracer.install()
    try:
        run_all()
    finally:
        tracer.uninstall()
    profile = cProfile.Profile()
    profile.enable()
    try:
        run_all()
    finally:
        profile.disable()
    counts = {(f, line, name): nc for (f, line, name), (_, nc, _, _, _)
              in pstats.Stats(profile).stats.items()}
    mismatches = {}
    for prefix, _, _, _ in TARGETS:
        code = tracer.original(prefix).__code__
        expected = counts.get((code.co_filename, code.co_firstlineno,
                               code.co_name), 0)
        got = tracer.stats[prefix]["calls"]
        if got != expected:
            mismatches[prefix] = (got, expected)
    return mismatches
