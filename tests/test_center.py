"""The center of an extension against its multiplication table.

tower.center_structure and the index behind subgroup_index_in(g, CENTER)
read the center off the factor set, by one lattice computation for
finite, free and mixed layers alike.  On finite extensions the table
gives an independent answer: to_cayley, then a scan of all |E|^2
products for the elements that commute with everything.  The
extensions here are drawn from a seed: a small base, a layer with up to
two torsion coordinates, an independent sign character per coordinate,
a random coboundary, and on cyclic bases a carry cocycle, which is
non-split whenever its value misses the image of the norm map.
"""

import functools
import io
import itertools
import json
import pathlib
import random
import shutil

from thg.abelian import FgAbelian, IntMatrix
from thg.cli import EXIT_CHECK_FAILED, run
from thg.fingroup import (SubgroupRef, abelian_structure, from_catalog,
                          subgroup_as_group)
from thg.spacecat import CENTER, subgroup_index_in
from thg.tower import (LayerAut, center_structure, direct_sum_group,
                       make_virtabelian, to_cayley)

BASES = ["Z2", "Z(3)", "Z(4)", "Z(6)", "Z2xZ2", "Q8", "D4"]
CYCLIC = {"Z2", "Z(3)", "Z(4)", "Z(6)"}
LAYERS = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (3, 6)]
SEEDS = range(7)
# The oracle tabulates |E|^2 products; extensions up to order 24 keep the
# battery, over 200 of them, near a second and a half.
ORDER_CAP = 24
CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"


@functools.lru_cache(maxsize=None)
def sign_characters(name):
    """Every homomorphism from the base to {+1, -1}, as one sign per element."""
    base = from_catalog(name)
    n = base.order
    return [signs for signs in itertools.product((1, -1), repeat=n)
            if all(signs[base.table[q][r]] == signs[q] * signs[r]
                   for q in range(n) for r in range(n))]


def layer_elements(layer):
    return list(itertools.product(*(range(t) for t in layer.torsion)))


def carry_cocycle(base, layer, action, rng):
    """c(g^i, g^j) = v when i + j wraps past n, for a generator g of the
    cyclic base and v fixed by the action.  Returns the cocycle and
    whether it is non-split, that is whether v misses the norm image."""
    n = base.order
    g = next(i for i in range(n) if base.element_order(i) == n)
    power = [base.identity_index]
    for _ in range(n - 1):
        power.append(base.table[power[-1]][g])
    exponent = {q: k for k, q in enumerate(power)}
    elements = layer_elements(layer)
    v = rng.choice([a for a in elements if action[g].apply(a) == a])
    norms = set()
    for a in elements:
        total, image = layer.zero(), a
        for _ in range(n):
            total = layer.add(total, image)
            image = action[g].apply(image)
        norms.add(total)
    cocycle = {(q, r): v for q in range(n) for r in range(n)
               if exponent[q] + exponent[r] >= n}
    return cocycle, v not in norms


def seeded_extension(name, torsion, seed):
    """(extension, non-split) for one base, one layer and one seed."""
    rng = random.Random(f"{name}/{torsion}/{seed}")
    base = from_catalog(name)
    layer = FgAbelian(0, torsion)
    # One sign character per coordinate, drawn independently.
    chars = [rng.choice(sign_characters(name)) for _ in torsion]
    action = [LayerAut(layer, IntMatrix.zeros(0, 0), tuple(ch[q] for ch in chars))
              for q in range(base.order)]
    nonsplit = False
    cocycle = {}
    if name in CYCLIC and seed % 2:
        cocycle, nonsplit = carry_cocycle(base, layer, action, rng)
    # Add the coboundary of a normalised f: c(q, r) + f(q) + q.f(r) - f(qr).
    elements = layer_elements(layer)
    f = [layer.zero() if q == base.identity_index else rng.choice(elements)
         for q in range(base.order)]
    for q in range(base.order):
        for r in range(base.order):
            c = cocycle.get((q, r), layer.zero())
            c = layer.add(layer.add(c, f[q]), action[q].apply(f[r]))
            cocycle[(q, r)] = layer.reduce([a - b for a, b in zip(c, f[base.table[q][r]])])
    return make_virtabelian(base, layer, dict(enumerate(action)), cocycle), nonsplit


def scanned_center(g):
    """The center of a Cayley group by the |G|^2 scan, sharing no code
    with fingroup.center, which reads it off the generators."""
    t, n = g.table, g.order
    return SubgroupRef(g, tuple(z for z in range(n)
                                if all(t[z][x] == t[x][z] for x in range(n))))


def test_center_matches_the_tabulated_center_on_seeded_extensions():
    checked = nonsplit_count = 0
    for name, torsion, seed in itertools.product(BASES, LAYERS, SEEDS):
        if from_catalog(name).order * FgAbelian(0, torsion).order > ORDER_CAP:
            continue
        g, nonsplit = seeded_extension(name, torsion, seed)
        cay = to_cayley(g)
        z = scanned_center(cay)
        case = (name, torsion, seed)
        assert center_structure(g) == abelian_structure(subgroup_as_group(cay, z)), case
        assert subgroup_index_in(g, CENTER) == cay.order // z.order, case
        checked += 1
        nonsplit_count += nonsplit
    assert checked >= 200 and nonsplit_count >= 20, (checked, nonsplit_count)


def test_center_index_of_z_times_q8_is_four():
    # A full-rank center has index 1 only in a torsion-free group.
    g = direct_sum_group(from_catalog("Q8"), FgAbelian(1))
    assert center_structure(g) == FgAbelian(1, (2,))
    assert subgroup_index_in(g, CENTER) == 4


def test_center_of_layers_past_enumeration():
    q8 = from_catalog("Q8")
    assert center_structure(direct_sum_group(q8, FgAbelian(0, (1000,)))) \
        == FgAbelian(0, (2, 1000))
    assert center_structure(direct_sum_group(q8, FgAbelian(1, (2,)))) \
        == FgAbelian(1, (2, 2))


def test_audit_fails_an_orbit_group_with_torsion_over_an_aspherical_space(tmp_path):
    # Z x Q8 has torsion, so no free action on the circle produces it;
    # its center has index 4, and the orbit space is not 1-Gottlieb.
    catalog = tmp_path / "catalog"
    catalog.mkdir()
    shutil.copy(CATALOG_DIR / "s1.json", catalog)
    (catalog / "s1-q8.json").write_text(json.dumps({
        "kind": "transformation", "space": "S1", "group": {"catalog": "Q8"},
        "free": True, "action": {}, "cocycle": {}}))
    out, err = io.StringIO(), io.StringIO()
    code = run(["audit", "s1-q8", "--max-n", "2", "--format", "json",
                "--catalog-dir", str(catalog)], out=out, err=err)
    assert code == EXIT_CHECK_FAILED, err.getvalue()
    entries = json.loads(out.getvalue())["report"]["entries"]
    failed = [e["check"] for e in entries if e["status"] == "fail"]
    assert failed == ["aspherical-equivalence"]

