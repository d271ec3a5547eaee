"""Independent checks of thg's answers, written without using thg.

CLI outputs are checked against the digests recorded at the seed commit
and, where the answer is known in closed form, against it directly:
tower layer multiplicities are binomials, batteries must pass, and
expected-error requests must exit with their documented code.

Library results are checked with oracles that scale with the input:
exact Bareiss elimination for determinants and ranks, divisor chains,
gcds, matrix products for the transforms, and abelianization, center
and element-order profiles of direct products computed from the factors.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

# Failure kinds.
TIMEOUT = "timeout"
WRONG_OUTPUT = "wrong-output"
WRONG_EXIT = "wrong-exit-code"
EXCEPTION = "exception"


# ---------------------------------------------------------------------------
# CLI outputs


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()[:20]


def reference_entry(rc: int, stdout: str) -> str:
    return f"{rc}:{digest(stdout)}"


_LAYER_TEXT = re.compile(r"^  (pi|G)(\d+) \^ (\d+): ")
_HEAD_TEXT = re.compile(r"^G?(?:tau|sigma)_(\d+)\(")


def _layer_triples(fmt: str, stdout: str) -> List[Tuple[int, int, int]]:
    """(n, layer index i, multiplicity) for every tower layer printed."""
    out = []
    if fmt == "json":
        for item in json.loads(stdout)["results"]:
            for layer in item.get("summary", {}).get("layers", ()):
                i = int(layer["label"].lstrip("piG"))
                out.append((item["n"], i, layer["multiplicity"]))
        return out
    n = None
    for line in stdout.splitlines():
        head = _HEAD_TEXT.match(line)
        if head:
            n = int(head.group(1))
            continue
        m = _LAYER_TEXT.match(line)
        if m and n is not None:
            out.append((n, int(m.group(2)), int(m.group(3))))
    return out


def check_cli(argv: Sequence[str], expect_rc: int, rc: int, stdout: str,
              reference: Dict[str, str]) -> Optional[str]:
    """None if the sample is right, else its failure kind."""
    if rc != expect_rc:
        return WRONG_EXIT
    key = " ".join(argv)
    if reference.get(key) != reference_entry(rc, stdout):
        return WRONG_OUTPUT
    verb, fmt = argv[0], argv[argv.index("--format") + 1]
    if rc != 0:
        return None if stdout == "" else WRONG_OUTPUT
    try:
        if verb in ("verify", "audit"):
            passed = (json.loads(stdout)["report"]["passed"] is True
                      if fmt == "json"
                      else stdout.splitlines()[-1].startswith("PASSED"))
            if not passed:
                return WRONG_OUTPUT
        if verb in ("tau", "gtau", "sigma", "gsigma"):
            for n, i, mult in _layer_triples(fmt, stdout):
                if mult != math.comb(n - 1, i - 1):
                    return WRONG_OUTPUT
    except (ValueError, KeyError, IndexError, TypeError):
        return WRONG_OUTPUT
    return None


# ---------------------------------------------------------------------------
# Groups, built here from their definitions


def cyclic_table(k: int) -> List[List[int]]:
    return [[(i + j) % k for j in range(k)] for i in range(k)]


def _semidirect_8(quaternion: bool) -> List[List[int]]:
    # elements x^a y^b as 2a + b; y x y^-1 = x^-1, y^2 = x^2 (Q8) or 1 (D4)
    def mul(p, q):
        (a1, b1), (a2, b2) = divmod(p, 2), divmod(q, 2)
        if b1 == 0:
            return 2 * ((a1 + a2) % 4) + b2
        a = a1 - a2
        if b2 == 1:
            return 2 * ((a + (2 if quaternion else 0)) % 4)
        return 2 * (a % 4) + 1
    return [[mul(p, q) for q in range(8)] for p in range(8)]


# factor name -> (table builder, abelianization, center) as cyclic orders
_FACTORS = {
    "Q8": (lambda: _semidirect_8(True), (2, 2), (2,)),
    "D4": (lambda: _semidirect_8(False), (2, 2), (2,)),
    "Z2": (lambda: cyclic_table(2), (2,), (2,)),
}


def _factor(name: str):
    if name in _FACTORS:
        return _FACTORS[name]
    m = re.fullmatch(r"Z\((\d+)\)", name)
    if not m:
        raise ValueError(f"unknown factor {name}")
    k = int(m.group(1))
    return (lambda: cyclic_table(k)), (k,), (k,)


def split_product(name: str) -> List[str]:
    """'Q8xZ(4)xZ2' -> ['Q8', 'Z(4)', 'Z2']."""
    return name.split("x")


def product_table(a: List[List[int]], b: List[List[int]]) -> List[List[int]]:
    na, nb = len(a), len(b)
    return [[a[x1][x2] * nb + b[y1][y2] for x2 in range(na) for y2 in range(nb)]
            for x1 in range(na) for y1 in range(nb)]


def base_table(name: str) -> List[List[int]]:
    """Multiplication table of a catalog product; identity at index 0."""
    table = None
    for part in split_product(name):
        t = _factor(part)[0]()
        table = t if table is None else product_table(table, t)
    return table


def base_abelian_invariants(name: str, which: str) -> List[int]:
    """Cyclic orders of the abelianization ('ab') or center ('center')."""
    idx = 1 if which == "ab" else 2
    return [k for part in split_product(name) for k in _factor(part)[idx]]


def relabel(table: List[List[int]], identity: int, rng: random.Random):
    """The same group under a random renaming: (table, identity index)."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    new = [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    return new, perm[identity]


def order_profile(table: Sequence[Sequence[int]], identity: int) -> Counter:
    prof: Counter = Counter()
    for x in range(len(table)):
        k, y = 1, x
        while y != identity:
            y = table[y][x]
            k += 1
        prof[k] += 1
    return prof


def product_profile(p: Counter, q: Counter) -> Counter:
    out: Counter = Counter()
    for a, ca in p.items():
        for b, cb in q.items():
            out[a * b // math.gcd(a, b)] += ca * cb
    return out


def invariant_factors(cyclic_orders: Sequence[int]) -> Tuple[int, ...]:
    """Invariant factors d1 | d2 | ... (all >= 2) of a sum of Z/k."""
    by_prime: Dict[int, List[int]] = {}
    for k in cyclic_orders:
        p = 2
        while k > 1:
            if k % p == 0:
                e = 1
                while k % p == 0:
                    k //= p
                    e *= p
                by_prime.setdefault(p, []).append(e)
            p += 1
    length = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * length
    for powers in by_prime.values():
        for j, e in enumerate(sorted(powers, reverse=True)):
            factors[length - 1 - j] *= e
    return tuple(factors)


# ---------------------------------------------------------------------------
# Integer matrices


def random_matrix(rng: random.Random, rows: int, cols: int,
                  lo: int = -9, hi: int = 9) -> List[List[int]]:
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def bareiss(rows: Sequence[Sequence[int]]) -> Tuple[int, int]:
    """(rank, determinant or 0) by exact fraction-free elimination."""
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    sign, prev, r = 1, 1, 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, m):
            for j in range(c + 1, n):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    det = sign * prev if (m == n and r == n) else 0
    return r, det if n else 1


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> List[List[int]]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def divisor_chain(diag: Sequence[int]) -> bool:
    nonzero = [d for d in diag if d != 0]
    if any(d < 0 for d in diag) or list(diag[:len(nonzero)]) != nonzero:
        return False
    return all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


def check_diagonal(matrix, diag) -> bool:
    rank, det = bareiss(matrix)
    nonzero = [d for d in diag if d != 0]
    if not divisor_chain(diag) or len(nonzero) != rank:
        return False
    g = 0
    for row in matrix:
        for v in row:
            g = math.gcd(g, v)
    if nonzero and nonzero[0] != g:
        return False
    return det == 0 or math.prod(nonzero) == abs(det)


def check_transforms(matrix, diag, left, right) -> bool:
    rows, cols = len(matrix), len(matrix[0])
    d = [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)]
         for i in range(rows)]
    return (abs(bareiss(left)[1]) == 1 and abs(bareiss(right)[1]) == 1
            and matmul(matmul(left, matrix), right) == d)

