"""Orders and indices are exact ints: INFINITY is 0, the free Z = Z/0."""

import pytest

import thg.tower
from thg.abelian import INFINITY, FgAbelian, IntMatrix, order_text
from thg.errors import UnsupportedError
from thg.fox import gottlieb_fox_invariants, gottlieb_index_product, tau_invariants
from thg.rhodes import sigma1_group, sigma_invariants
from thg.spacecat import (SpaceModel, TransformationModel, builtin_catalog,
                          orbit_space)
from thg.tower import (LayerAut, VirtAbelian, center_index, identity_aut,
                       make_summary, to_cayley)
from thg.verdict import Indeterminate

MODELS = builtin_catalog()
BY_NAME = {m.name: m for m in MODELS}
SPACES = [m for m in MODELS if isinstance(m, SpaceModel)]
FREE_ACTIONS = [m for m in MODELS if isinstance(m, TransformationModel) and m.free]


def _degrees(x: SpaceModel):
    return range(1, (6 if x.aspherical else min(x.truncation, 6)) + 1)


def test_infinity_is_the_integer_zero():
    assert INFINITY == 0 and type(INFINITY) is int
    assert FgAbelian(1).order == INFINITY
    assert order_text(INFINITY) == "inf"
    assert order_text(12) == "12"


def test_finite_order_of_a_summary_with_a_free_layer_of_multiplicity_zero():
    s = make_summary(1, 1, [("pi2", FgAbelian(1), 0), ("pi3", FgAbelian(0, (2,)), 2)], True)
    assert s.finite_order == 4 and type(s.finite_order) is int


@pytest.mark.parametrize("x", SPACES, ids=lambda m: m.name)
def test_space_orders_and_indices_are_ints(x):
    values = []
    for i in _degrees(x):
        values.append(x.pi_at(i).order)
        index, _ = x.gottlieb_entry(i)
        if index is not None:
            values.append(index)
        product = gottlieb_index_product(x, i)
        if not isinstance(product, Indeterminate):
            values.append(product)
        values.append(tau_invariants(x, i).finite_order)
        gtau = gottlieb_fox_invariants(x, i)
        if not isinstance(gtau, Indeterminate):
            values.append(gtau.finite_order)
    assert values and all(type(v) is int for v in values), values


@pytest.mark.parametrize("tg", FREE_ACTIONS, ids=lambda m: m.name)
def test_orbit_orders_are_ints(tg):
    pi1 = orbit_space(tg).pi1
    values = [pi1.order]
    if isinstance(pi1, VirtAbelian):
        values.append(center_index(pi1))
    values.extend(sigma_invariants(tg, n).finite_order for n in _degrees(tg.space))
    assert all(type(v) is int for v in values), values


def test_infinite_groups_are_still_refused_a_table():
    tg = BY_NAME["t3-z2"]
    assert tg.sigma1_extension.order == INFINITY
    with pytest.raises(UnsupportedError):
        to_cayley(tg.sigma1_extension)
    assert tg.sigma1_table is None
    with pytest.raises(UnsupportedError,
                       match="has order inf, beyond the tabulation cap 64"):
        sigma1_group(tg)


def test_is_identity_runs_no_determinant(monkeypatch):
    flip = IntMatrix.from_rows([[0, 1], [1, 0]])
    cases = [
        identity_aut(FgAbelian(2, (2, 4))),
        LayerAut(FgAbelian(0, (2,)), IntMatrix.identity(0), (-1,)),  # -1 = 1 mod 2
        LayerAut(FgAbelian(1, (2, 4)), IntMatrix.identity(1), (-1, 1)),
        LayerAut(FgAbelian(1, (4,)), IntMatrix.identity(1), (-1,)),
        LayerAut(FgAbelian(2, (2,)), flip, (1,)),
        LayerAut(FgAbelian(1), IntMatrix.from_rows([[-1]]), ()),
    ]
    expected = [True, True, True, False, False, False]
    assert [a == identity_aut(a.layer) for a in cases] == expected

    def no_det(m):
        raise AssertionError("is_identity computed a determinant")

    monkeypatch.setattr(thg.tower, "det", no_det)
    assert [a.is_identity() for a in cases] == expected
