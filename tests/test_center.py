"""The center of an extension against its multiplication table.

tower.center_structure and the index behind subgroup_index_in(g, CENTER)
read the center off the factor set, by one lattice computation for
finite, free and mixed layers alike.  On finite extensions the table
gives an independent answer: to_cayley, then a scan of all |E|^2
products for the elements that commute with everything.  The
extensions are strategies.extension's, over small bases and layers with
up to two torsion coordinates; on cyclic bases the carry cocycle is
non-split whenever its value misses the image of the norm map.  On
flat manifolds, free actions of Z/m on tori, the center is the fixed
lattice of the holonomy, whose rank is read off the action matrix.
"""

import io
import itertools
import json
import pathlib
import shutil

from strategies import (FLAT_CORPUS, flat_center_rank, flat_holonomy,
                        record_builds, scan_center, seeded_extension,
                        write_flat_manifold)

from thg.abelian import FgAbelian
from thg.cli import EXIT_CHECK_FAILED, EXIT_OK, run
from thg.fingroup import SubgroupRef, abelianization, from_catalog, subgroup_as_group
from thg.spacecat import CENTER, Catalog, orbit_space, subgroup_index_in
from thg.tower import abelianization as extension_abelianization
from thg.tower import center_structure, direct_sum_group, to_cayley

BASES = ["Z2", "Z(3)", "Z(4)", "Z(6)", "Z2xZ2", "Q8", "D4"]
LAYERS = [(2,), (3,), (4,), (6,), (2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (3, 6)]
SEEDS = range(7)
# The oracle tabulates |E|^2 products; extensions up to order 24 keep the
# battery, over 200 of them, near a second and a half.
ORDER_CAP = 24
CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"


def test_center_matches_the_tabulated_center_on_seeded_extensions():
    checked = nonsplit_count = 0
    for name, torsion, seed in itertools.product(BASES, LAYERS, SEEDS):
        if from_catalog(name).order * FgAbelian(0, torsion).order > ORDER_CAP:
            continue
        g, _, nonsplit = seeded_extension(name, FgAbelian(0, torsion), seed)
        cay = to_cayley(g)
        z = SubgroupRef(cay, scan_center(cay))
        case = (name, torsion, seed)
        assert center_structure(g) == abelianization(subgroup_as_group(cay, z)), case
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


def test_flat_manifold_centers_are_the_fixed_lattice(tmp_path, monkeypatch):
    # Each free Z/m action on T^k, A = 1 + B, has a Bieberbach orbit
    # group whose center, and whose abelianization's free part, have the
    # rank of the fixed lattice of A.  The whole corpus shares one
    # directory, and each verify builds its action and its torus only.
    ranks = set()
    assert len(FLAT_CORPUS) >= 30
    names = [write_flat_manifold(tmp_path, k, m, seed)
             for k, m, seed in FLAT_CORPUS]
    built = record_builds(monkeypatch)
    for (k, m, seed), name in zip(FLAT_CORPUS, names):
        rank = flat_center_rank(flat_holonomy(k, m, seed))
        ranks.add(rank)
        built.clear()
        out, err = io.StringIO(), io.StringIO()
        code = run(["verify", name, "--max-n", "3", "--format", "json",
                    "--catalog-dir", str(tmp_path)], out=out, err=err)
        assert code == EXIT_OK, (name, err.getvalue())
        assert built == [name, f"T{k}"]
        entries = json.loads(out.getvalue())["report"]["entries"]
        assert [e["detail"] for e in entries if e["check"] == "orbit-center"] == [
            f"center of pi_1(orbit) = {FgAbelian(rank, ()).describe()} (rank {rank})"], name
        pi1 = orbit_space(Catalog(str(tmp_path)).get(name)).pi1
        assert center_structure(pi1) == FgAbelian(rank, ()), name
        assert extension_abelianization(pi1).rank == rank, name
    assert len(ranks) > 5
