"""The library operations of the algebra-kernels workload.

``prepare(op)`` turns an operation description from
``workloads.algebra_pass`` into ``(call, check)``.  The inputs are
generated from the operation's own seed before the clock starts; ``call``
is the timed part and includes building thg's objects (users pay for
table validation); ``check`` grades the answer with the oracles.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Tuple

import oracles as orc
from workloads import BASES, DENSE_OPS, ENTRY_RANGE

from thg import abelian, fingroup, tower
from thg.abelian import FgAbelian, IntMatrix

# Layers for abelianization and center: (free rank, torsion).
_AB_LAYERS = ((1, ()), (2, ()), (1, (3,)))
_CENTER_RANKS = (1, 2)


def _group(table, identity) -> fingroup.CayleyGroup:
    n = len(table)
    return fingroup.CayleyGroup(n, tuple(f"g{i}" for i in range(n)),
                                tuple(tuple(r) for r in table), identity)


def _same_abelian(got, rank: int, cyclic) -> bool:
    return (got.rank, tuple(got.torsion)) == (rank, orc.invariant_factors(cyclic))


def _dense(op: str, n: int, rng: random.Random):
    m = orc.random_matrix(rng, n, n, *ENTRY_RANGE)
    if op == "snf_diagonal":
        return (lambda: abelian.snf_diagonal(IntMatrix.from_rows(m)),
                lambda diag: orc.check_diagonal(m, diag))
    if op == "smith_normal_form":
        def check(res):
            diag, left, right = res
            return (orc.check_diagonal(m, diag) and orc.check_transforms(
                m, diag, left.entries, right.entries))
        return lambda: abelian.smith_normal_form(IntMatrix.from_rows(m)), check
    if op == "cokernel":
        def check(g):
            rank, det = orc.bareiss(m)
            tors = list(g.torsion)
            gcd = math.gcd(*(v for row in m for v in row))
            return (g.rank == n - rank and orc.divisor_chain(tors)
                    and all(t >= 2 for t in tors)
                    and (det == 0 or math.prod(tors) == abs(det))
                    and (gcd < 2 or rank < n or tors[0] == gcd))
        return lambda: abelian.cokernel(n, [], IntMatrix.from_rows(m)), check
    if op == "subgroup_structure":
        return (lambda: abelian.subgroup_structure(FgAbelian(n),
                                                   IntMatrix.from_rows(m)),
                lambda g: g.rank == orc.bareiss(m)[0] and not g.torsion)
    if op == "solve_integer":
        x = [rng.randint(-5, 5) for _ in range(n)]
        target = [sum(a * b for a, b in zip(row, x)) for row in m]

        def check(y):
            return y is not None and [sum(a * b for a, b in zip(row, y))
                                      for row in m] == target
        return lambda: abelian.solve_integer(IntMatrix.from_rows(m), target), check
    raise ValueError(f"unknown dense operation {op}")


def prepare(op: dict) -> Tuple[Callable[[], object], Callable[[object], bool]]:
    rng = random.Random(op["input_seed"])
    kind, size = op["op"], op["size"]
    if kind in DENSE_OPS:
        return _dense(kind, size, rng)
    name = BASES[size][0]
    table, e = orc.relabel(orc.base_table(name), 0, rng)
    if kind == "abelianization":
        rank, tors = rng.choice(_AB_LAYERS)
        cyclic = orc.base_abelian_invariants(name, "ab") + list(tors)
        return (lambda: tower.abelianization(tower.direct_sum_group(
                    _group(table, e), FgAbelian(rank, tors))),
                lambda g: _same_abelian(g, rank, cyclic))
    if kind == "center_structure":
        rank = rng.choice(_CENTER_RANKS)
        cyclic = orc.base_abelian_invariants(name, "center")
        return (lambda: tower.center_structure(tower.direct_sum_group(
                    _group(table, e), FgAbelian(rank))),
                lambda g: _same_abelian(g, rank, cyclic))
    if kind == "to_cayley":
        k = 64 // size
        expected = orc.product_profile(orc.order_profile(table, e),
                                       orc.order_profile(orc.cyclic_table(k), 0))
        return (lambda: tower.to_cayley(tower.direct_sum_group(
                    _group(table, e), FgAbelian(0, (k,)))),
                lambda g: g.order == 64 and orc.order_profile(
                    g.table, g.identity_index) == expected)
    if kind == "is_isomorphic_relabel":
        t1, e1 = orc.relabel(table, e, rng)
        t2, e2 = orc.relabel(table, e, rng)
        return (lambda: fingroup.is_isomorphic(_group(t1, e1), _group(t2, e2)),
                lambda same: same is True)
    if kind == "is_isomorphic_pair":
        q_name, d_name = BASES[size]
        t1, e1 = orc.relabel(orc.base_table(q_name), 0, rng)
        t2, e2 = orc.relabel(orc.base_table(d_name), 0, rng)
        if orc.order_profile(t1, e1) == orc.order_profile(t2, e2):
            raise ValueError(f"{q_name} and {d_name} share an order profile")
        return (lambda: fingroup.is_isomorphic(_group(t1, e1), _group(t2, e2)),
                lambda same: same is False)
    raise ValueError(f"unknown operation {kind}")
