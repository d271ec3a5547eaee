"""Frozen models and the data derived from them once per model."""

import collections
import dataclasses
import io
import json
import pathlib
import sys

import pytest
from strategies import write_flat_manifold

from thg import cli, fox, rhodes, tower
from thg.abelian import INFINITY, FgAbelian
from thg.errors import ModelError, ThgError
from thg.rhodes import (classify, compute_g0, gottlieb_rhodes_invariants,
                        sigma1_group, sigma_invariants)
from thg.spacecat import (TransformationModel, builtin_catalog, find_model,
                          load_model, orbit_space)
from thg.tower import VirtAbelian

CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"

MODELS = builtin_catalog()
ACTIONS = [m for m in MODELS if isinstance(m, TransformationModel)]
FREE_NAMES = [m.name for m in ACTIONS if m.free]


def _finite_sigma1(tg):
    try:
        return tg.sigma1_extension.order != INFINITY
    except ThgError:
        return False


FINITE_SIGMA1_NAMES = [m.name for m in ACTIONS if m.free and _finite_sigma1(m)]


def _cap(tg, top=6):
    x = tg.space
    return top if x.aspherical else min(top, x.truncation)


@pytest.mark.parametrize("name", FREE_NAMES)
def test_orbit_space_and_g0_are_built_once(name):
    tg = find_model(name, MODELS)
    assert orbit_space(tg) is orbit_space(tg)
    assert compute_g0(tg) is compute_g0(tg)


@pytest.mark.parametrize("name", FREE_NAMES)
def test_one_extension_per_model_across_verbs(name, monkeypatch):
    built = []
    validate = VirtAbelian.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(VirtAbelian, "__post_init__", counting)
    # Fresh models, so nothing is cached from other tests.
    models = builtin_catalog()
    tg = find_model(name, models)
    from_load = sum(1 for m in models if isinstance(m, TransformationModel)
                    and m.cocycle is not None and m is not tg)
    for n in range(1, _cap(tg) + 1):
        sigma_invariants(tg, n)
        gottlieb_rhodes_invariants(tg, n)
    classify(tg, _cap(tg))
    assert len(built) - from_load == 1


def test_models_are_frozen():
    tg = find_model("t3-z2", MODELS)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tg.free = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        tg.space.truncation = 2


def test_broken_cocycle_is_rejected_at_load():
    spaces = {m.name: m for m in MODELS if not isinstance(m, TransformationModel)}
    doc = json.loads((CATALOG_DIR / "t3-z2.json").read_text())
    # t flips the second coordinate, so c(t, t) must not touch it.
    doc["cocycle"] = {"t,t": [0, 1, 0]}
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(doc), name="t3-z2", resolver=spaces.__getitem__)
    assert exc.value.path == "cocycle"
    assert "cocycle condition" in exc.value.message


@pytest.mark.parametrize("name", FINITE_SIGMA1_NAMES)
def test_one_sigma1_table_per_model(name, monkeypatch):
    tabulated = []
    honest = tower.to_cayley

    def counting(g):
        tabulated.append(g)
        return honest(g)

    # Every thg module that imported to_cayley calls it by its own name.
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("thg")
                and getattr(module, "to_cayley", None) is honest):
            monkeypatch.setattr(module, "to_cayley", counting)
    tg = find_model(name, builtin_catalog())
    orbit_space(tg)
    sigma1_group(tg)
    gottlieb_rhodes_invariants(tg, 1)
    classify(tg, _cap(tg))
    assert len(tabulated) == 1
    assert sigma1_group(tg) is tg.sigma1_table


@pytest.mark.parametrize("name", FREE_NAMES)
def test_sigma_derives_tau_once_on_the_orbit_space(name, monkeypatch):
    seen = []
    honest = rhodes.tau_invariants

    def counting(x, n):
        seen.append(x)
        return honest(x, n)

    monkeypatch.setattr(rhodes, "tau_invariants", counting)
    tg = find_model(name, MODELS)
    sigma_invariants(tg, 2)
    assert seen == [orbit_space(tg)]


@pytest.mark.parametrize("argv", [("verify", "t3-z2", "--max-n", "40"),
                                  ("verify", "--all", "--max-n", "20")])
def test_verify_walks_each_orbit_tower_once(argv, monkeypatch):
    built = collections.Counter()
    honest = fox.tau_invariants

    def counting(x, n):
        built[x.name, n] += 1
        return honest(x, n)

    # Counted through both bindings: fox's walk and rhodes' own calls.
    monkeypatch.setattr(fox, "tau_invariants", counting)
    monkeypatch.setattr(rhodes, "tau_invariants", counting)
    assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == cli.EXIT_OK
    # An orbit space is named X/action; each of its degrees is built once.
    orbit = {key: count for key, count in built.items() if "/" in key[0]}
    assert orbit and set(orbit.values()) == {1}
    if argv[1] == "t3-z2":
        assert sorted(orbit) == [("T3/t3-z2", n) for n in range(1, 41)]


@pytest.mark.parametrize("argv, extensions", [
    (("verify", "t3-z2", "--max-n", "4"), 1),
    (("audit", "t3-z2", "--max-n", "4"), 1),
    (("classify", "t3-z2", "--max-n", "4"), 1),
    (("verify", "--all", "--max-n", "4"), 2),
    (("verify", "t8-z4-s3", "--max-n", "3"), 1)])
def test_one_center_factorization_per_orbit_extension(argv, extensions, monkeypatch,
                                                       tmp_path):
    # The orbit groups of t3-z2 and t3-trivial are the catalog's infinite
    # extensions; the flat-manifold corpus member t8-z4-s3 is read from a
    # catalog directory of its own.
    if argv[1] == "t8-z4-s3":
        write_flat_manifold(tmp_path, 8, 4, 3)
        argv += ("--catalog-dir", str(tmp_path))
    factored = []
    honest = tower._center_data

    def counting(g):
        factored.append(g)
        return honest(g)

    monkeypatch.setattr(tower, "_center_data", counting)
    assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == cli.EXIT_OK
    assert len(factored) == extensions


@pytest.mark.parametrize("argv, builds", [(("verify", "t3-z2", "--max-n", "40"), 40),
                                          (("verify", "--all", "--max-n", "20"), 72)])
def test_one_gottlieb_fox_group_per_rhodes_degree(argv, builds, monkeypatch):
    built = []
    honest = fox.gottlieb_fox_invariants

    def counting(x, n):
        built.append((x.name, n))
        return honest(x, n)

    # Counted through both bindings: fox's and the one rhodes imported.
    monkeypatch.setattr(fox, "gottlieb_fox_invariants", counting)
    monkeypatch.setattr(rhodes, "gottlieb_fox_invariants", counting)
    assert cli.run(list(argv), out=io.StringIO(), err=io.StringIO()) == cli.EXIT_OK
    assert len(built) == builds


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, summary", [
    (("gtau", "T3", "--n", "650"),
     lambda n: fox.gottlieb_fox_invariants(find_model("T3", MODELS), n)),
    (("gsigma", "t3-z2", "--max-n", "58"),
     lambda n: gottlieb_rhodes_invariants(find_model("t3-z2", MODELS), n).summary)],
    ids=["gtau", "gsigma"])
def test_each_group_is_named_once_per_rendered_summary(argv, summary, fmt, monkeypatch):
    # A deep summary carries the same few groups on hundreds of layers.
    degrees = [int(argv[3])] if argv[2] == "--n" else range(1, int(argv[3]) + 1)
    distinct = sum(len(set(summary(n).groups)) for n in degrees)
    named = []
    honest = FgAbelian.describe

    def counting(self):
        named.append(self)
        return honest(self)

    monkeypatch.setattr(FgAbelian, "describe", counting)
    assert cli.run([*argv, "--format", fmt], out=io.StringIO(),
                   err=io.StringIO()) == cli.EXIT_OK
    assert 0 < len(named) <= distinct
