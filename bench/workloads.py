"""Request generators for the three benchmark workloads.

A workload is a fixed list of slots.  Each pass over the list draws one
request per slot from that slot's finite set of choices, with a random
stream derived from (workload, seed, pass), and shuffles the order of
the pass.  The same seed therefore always yields the same request
stream, different seeds yield different streams, and every request a
generator can emit is listed by ``domain`` (which the recorded reference
outputs must cover).  Choices within a slot are kept cost-equivalent
(degree bands a few steps wide, formats, targets of one kind), so the
seed changes the inputs without changing how much work a pass is.

The catalog facts below are the shipped catalog's names and
truncations; they are written out here so that generating requests
never needs ``thg`` itself.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

WORKLOADS = ("catalog-battery", "deep-tower", "algebra-kernels")

# name -> (truncation, aspherical)
SPACES: Dict[str, Tuple[int, bool]] = {
    "RP3": (6, False), "S1": (1, True), "S2": (4, False), "S3": (6, False),
    "S3modQ8": (6, False), "S3modZ4": (6, False), "S3xS3xS3": (4, False),
    "S5": (5, False), "T3": (1, True),
}
# free action name -> its space
ACTIONS: Dict[str, str] = {
    "rp3-z2z2": "RP3", "s2-z2": "S2", "s3-q8": "S3", "s3-z4": "S3",
    "s3xs3xs3-z2": "S3xS3xS3", "s5-z2": "S5", "t3-trivial": "T3",
    "t3-z2": "T3",
}
FORMATS = ("text", "json")
# Targets that name no model.  Names of the form S<k> are avoided: they
# resolve to the sphere template.
UNKNOWN_NAMES = ("nosuch", "T4", "s3-z8", "Q8")

EXIT_OK, EXIT_COMPUTATION, EXIT_USAGE = 0, 1, 2


def band(centre: int, width: int = 2, step: int = 2) -> Tuple[int, ...]:
    """Degrees centre - width*step .. centre + width*step, in steps."""
    return tuple(centre + k * step for k in range(-width, width + 1))


def _cap_band(space: str, clipped: bool) -> Tuple[int, ...]:
    """--max-n choices: up to the truncation, or about 50 if aspherical.

    verify and audit clip the bound to the truncation, so for them every
    choice is at or past it and the battery does the same work whichever
    is drawn; the other verbs reject a bound past the truncation.
    """
    trunc, aspherical = SPACES[space]
    if aspherical:
        return band(48, 2, 1)
    return (trunc, trunc + 1, trunc + 2) if clipped else (trunc - 1, trunc)


@dataclass(frozen=True)
class CliSlot:
    """One request slot of a CLI workload: argv = verb target options."""

    name: str
    verb: str
    targets: Tuple[str, ...] = ()
    flag: Optional[str] = None          # "--n" or "--max-n"
    degrees: Tuple[int, ...] = ()
    formats: Tuple[str, ...] = FORMATS
    expect_rc: int = EXIT_OK
    extra: Tuple[str, ...] = ()         # e.g. ("--all",)

    def choices(self) -> Iterator[List[str]]:
        targets = self.targets or (None,)
        degrees = self.degrees or (None,)
        for t, d, f in itertools.product(targets, degrees, self.formats):
            yield self.argv(t, d, f)

    def draw(self, rng: random.Random) -> List[str]:
        t = rng.choice(self.targets) if self.targets else None
        d = rng.choice(self.degrees) if self.degrees else None
        return self.argv(t, d, rng.choice(self.formats))

    def argv(self, target, degree, fmt) -> List[str]:
        argv = [self.verb]
        if target is not None:
            argv.append(target)
        argv.extend(self.extra)
        if degree is not None:
            argv += [self.flag, str(degree)]
        argv += ["--format", fmt]
        return argv


def _catalog_battery_slots() -> List[CliSlot]:
    slots = [CliSlot("list", "list"),
             CliSlot("show", "show", tuple(SPACES) + tuple(ACTIONS),
                     formats=("json",))]
    for verb in ("tau", "gtau"):
        slots.append(CliSlot(f"{verb}:low", verb, tuple(SPACES), "--n",
                             (1, 2, 3)))
    for name in list(SPACES) + list(ACTIONS):
        space = ACTIONS.get(name, name)
        slots.append(CliSlot(f"verify:{name}", "verify", (name,), "--max-n",
                             _cap_band(space, True)))
    for top in (4, 8, 20):
        slots.append(CliSlot(f"verify:--all:{top}", "verify", flag="--max-n",
                             degrees=(top,), extra=("--all",)))
    for tg, space in ACTIONS.items():
        slots.append(CliSlot(f"audit:{tg}", "audit", (tg,), "--max-n",
                             _cap_band(space, True)))
        for verb in ("classify", "sigma", "gsigma"):
            slots.append(CliSlot(f"{verb}:{tg}", verb, (tg,), "--max-n",
                                 _cap_band(space, False)))
        slots.append(CliSlot(f"g0:{tg}", "g0", (tg,)))
    slots.append(CliSlot("audit:--all", "audit", flag="--max-n",
                         degrees=(4, 5, 6), extra=("--all",)))
    # Requests that must fail with their documented exit code.
    truncated = tuple(s for s, (_, asph) in SPACES.items() if not asph)
    slots.append(CliSlot("err:tau-past-truncation", "tau", truncated, "--n",
                         (7, 8), expect_rc=EXIT_COMPUTATION))
    slots.append(CliSlot("err:sigma-past-truncation", "sigma",
                         ("s3-q8", "s2-z2", "s5-z2"), "--n", (7, 8),
                         expect_rc=EXIT_COMPUTATION))
    slots.append(CliSlot("err:unknown-name", "tau", UNKNOWN_NAMES,
                         expect_rc=EXIT_USAGE))
    slots.append(CliSlot("err:space-not-action", "g0", tuple(SPACES),
                         expect_rc=EXIT_USAGE))
    slots.append(CliSlot("err:action-not-space", "gtau", tuple(ACTIONS),
                         "--n", (2,), expect_rc=EXIT_USAGE))
    return slots


def _deep_tower_slots() -> List[CliSlot]:
    # The gtau/gsigma slots skip the multiplicity re-check that dominates
    # tau and sigma, so a change there should leave them flat.  With the
    # classify slots they are 14 of 23, so the median request lies well
    # inside that group.  Output is JSON: 40-220 KB of big integers.
    slots = [
        CliSlot("tau:S1:300", "tau", ("S1",), "--n", band(300)),
        CliSlot("tau:T3:450", "tau", ("T3",), "--n", band(450)),
        CliSlot("tau:T3:600", "tau", ("T3",), "--n", band(600)),
        CliSlot("tau:S1:600", "tau", ("S1",), "--n", band(600)),
        CliSlot("gtau:T3:550", "gtau", ("T3",), "--n", band(550)),
        CliSlot("gtau:S1:550", "gtau", ("S1",), "--n", band(550)),
        CliSlot("gtau:T3:600", "gtau", ("T3",), "--n", band(600)),
        CliSlot("gtau:S1:600", "gtau", ("S1",), "--n", band(600)),
        CliSlot("gtau:T3:650", "gtau", ("T3",), "--n", band(650)),
        CliSlot("gtau:S1:650", "gtau", ("S1",), "--n", band(650)),
        CliSlot("sigma:t3-z2:400", "sigma", ("t3-z2",), "--n", band(400)),
        CliSlot("sigma:t3-trivial:400", "sigma", ("t3-trivial",), "--n",
                band(400)),
        CliSlot("gsigma:t3-z2:550", "gsigma", ("t3-z2",), "--n", band(550)),
        CliSlot("gsigma:t3-trivial:550", "gsigma", ("t3-trivial",), "--n",
                band(550)),
        CliSlot("gsigma:t3-z2:600", "gsigma", ("t3-z2",), "--n", band(600)),
        CliSlot("gsigma:t3-trivial:600", "gsigma", ("t3-trivial",), "--n",
                band(600)),
        CliSlot("gsigma:t3-z2:650", "gsigma", ("t3-z2",), "--n", band(650)),
        CliSlot("gsigma:t3-trivial:650", "gsigma", ("t3-trivial",), "--n",
                band(650)),
        CliSlot("classify:t3-z2:60", "classify", ("t3-z2",), "--max-n",
                band(58, 2, 1)),
        CliSlot("classify:t3-trivial:60", "classify", ("t3-trivial",),
                "--max-n", band(58, 2, 1)),
        CliSlot("tau:T3:sweep", "tau", ("T3",), "--max-n", band(58, 2, 1)),
        CliSlot("sigma:t3-z2:sweep", "sigma", ("t3-z2",), "--max-n",
                band(58, 2, 1)),
        CliSlot("gsigma:t3-trivial:sweep", "gsigma", ("t3-trivial",),
                "--max-n", band(58, 2, 1)),
    ]
    return [replace(s, formats=("json",)) for s in slots]


# ---------------------------------------------------------------------------
# algebra-kernels: library operations on generated inputs

# Product bases from the group catalog, by order: a Q8 and a D4 version,
# never isomorphic.  Every factor is Q8, D4 or cyclic, so abelianization
# and center are known from the factors.  The layer kernels use the first
# base of each order, randomly relabelled.
BASES: Dict[int, Tuple[str, ...]] = {
    8: ("Q8", "D4"),
    16: ("Q8xZ2", "D4xZ2"),
    32: ("Q8xZ(4)", "D4xZ(4)"),
    64: ("Q8xZ(4)xZ2", "D4xZ(4)xZ2"),
}
# Dense square SNF: up to 5x5 every seeded matrix finishes in under 1 ms
# at the seed commit.  From 6x6 some do not finish at all (about 3 % at
# 6x6, most from 7x7), so those sizes are measured by the probe instead.
DENSE_SIZES = (2, 3, 4, 5)
DENSE_OPS = ("snf_diagonal", "smith_normal_form", "cokernel",
             "subgroup_structure", "solve_integer")
DENSE_REPEATS = 4            # fresh matrices per dense slot in one batch
PROBE_SIZES = (6, 7, 8, 9, 10, 11, 12)
# One abelianization over an order-64 base takes 4 to 7 s at the seed
# commit, too long to sample often enough in a timed run; traced runs
# time one as a probe.
PROBE_ABELIANIZATION_ORDER = 64
ENTRY_RANGE = (-9, 9)


@dataclass(frozen=True)
class LibSlot:
    """One library operation of the algebra-kernels batch."""

    name: str
    op: str
    size: int                 # matrix size, or base order
    limit_s: float
    repeats: int = 1


def _algebra_slots() -> List[LibSlot]:
    slots = [LibSlot(f"{op}:{n}x{n}", op, n, 5.0, DENSE_REPEATS)
             for op in DENSE_OPS for n in DENSE_SIZES]
    for order, limit in ((8, 5.0), (16, 10.0), (32, 20.0)):
        slots.append(LibSlot(f"abelianization:{order}", "abelianization",
                             order, limit))
        slots.append(LibSlot(f"center_structure:{order}", "center_structure",
                             order, limit))
        # layer Z/(64/order): the tabulated group has order 64
        slots.append(LibSlot(f"to_cayley:{order}", "to_cayley", order, limit))
    for order in (16, 32, 64):
        slots.append(LibSlot(f"is_isomorphic:relabel:{order}",
                             "is_isomorphic_relabel", order, 30.0))
        slots.append(LibSlot(f"is_isomorphic:pair:{order}",
                             "is_isomorphic_pair", order, 30.0))
    return slots


SLOTS = {
    "catalog-battery": _catalog_battery_slots(),
    "deep-tower": _deep_tower_slots(),
    "algebra-kernels": _algebra_slots(),
}
# A CLI request that does not finish within this many seconds is a failure.
CLI_LIMIT_S = {"catalog-battery": 20.0, "deep-tower": 30.0}


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def cli_pass(workload: str, seed: int, pass_index: int) -> List[dict]:
    """The requests of one pass of a CLI workload, in the order sent."""
    rng = pass_rng(workload, seed, pass_index)
    reqs = [{"slot": s.name, "argv": s.draw(rng), "expect_rc": s.expect_rc}
            for s in SLOTS[workload]]
    rng.shuffle(reqs)
    return reqs


def algebra_pass(seed: int, pass_index: int) -> List[dict]:
    """One batch of library operations; each carries its own input seed.

    Input seeds differ between passes and repeats, so no process ever
    sees the same input twice.
    """
    rng = pass_rng("algebra-kernels", seed, pass_index)
    ops = []
    for slot in SLOTS["algebra-kernels"]:
        for _ in range(slot.repeats):
            ops.append({"slot": slot.name, "op": slot.op, "size": slot.size,
                        "limit_s": slot.limit_s,
                        "input_seed": rng.randrange(2 ** 62)})
    rng.shuffle(ops)
    return ops


# The probe set every traced run ends with.  Together with the library
# probes these two requests reach every traced function, so each layer
# has a measured time on every workload, and the layer figures of one
# fixed input set can be compared across commits.
PROBE_CLI = (("verify", "--all", "--max-n", "4", "--format", "json"),
             ("classify", "s3-q8", "--max-n", "4", "--format", "json"))


def probe_ops(seed: int) -> List[dict]:
    """Library operations every traced run times once, after its passes.

    Dense SNF at the sizes the seed commit may not finish: a timeout
    there is the measured defect, counted by the per-layer metric
    ``abelian.snf_probe.timeouts``, not a failed sample.  One order-64
    abelianization, reported as ``tower.abelianization.order64_s``.  One
    subgroup_structure, which no CLI request reaches.
    """
    rng = pass_rng("probe", seed, 0)
    ops = [{"slot": f"probe:snf_diagonal:{n}x{n}", "op": "snf_diagonal",
            "size": n, "limit_s": 0.5, "input_seed": rng.randrange(2 ** 62)}
           for n in PROBE_SIZES]
    order = PROBE_ABELIANIZATION_ORDER
    ops.append({"slot": f"probe:abelianization:{order}",
                "op": "abelianization", "size": order, "limit_s": 60.0,
                "input_seed": rng.randrange(2 ** 62)})
    ops.append({"slot": "probe:subgroup_structure:5x5",
                "op": "subgroup_structure", "size": 5, "limit_s": 5.0,
                "input_seed": rng.randrange(2 ** 62)})
    return ops


def domain(workload: str) -> List[List[str]]:
    """Every argv a CLI workload's generator can emit."""
    return [argv for slot in SLOTS[workload] for argv in slot.choices()]


def probe_cli() -> List[dict]:
    return [{"slot": f"probe:{argv[0]}", "argv": list(argv), "expect_rc": 0}
            for argv in PROBE_CLI]


def argv_key(argv: Sequence[str]) -> str:
    return " ".join(argv)
