"""Extensions of finite groups by finitely generated abelian layers.

The quaternion group arises here twice over: once from the classical
factor set over the Klein four-group, once as the nonsplit extension of
Z/2 by Z/4.  Dropping the twist from the latter yields the dihedral
group instead, which pins down that the cocycle, not just the action,
is what the construction sees.
"""

import pytest

from strategies import elements, one, product

from thg.abelian import FgAbelian, INFINITY, IntMatrix
from thg.errors import InvalidInputError, UnsupportedError
from thg.fingroup import from_catalog, is_isomorphic
from thg.tower import (LayerAut, abelianization, center_structure,
                       direct_sum_group, identity_aut, make_summary,
                       make_virtabelian, to_cayley)

Z2 = from_catalog("Z2")
KLEIN = from_catalog("Z2xZ2")
T = Z2.index_of("t")


def klein_quaternion():
    """Q8 as Z/2 twisted over the Klein four-group by the factor set
    c(a,a) = c(b,b) = c(ab,ab) = c(a,ab) = c(ab,b) = c(b,a) = 1."""
    a, b, ab = (KLEIN.index_of(s) for s in ("a", "b", "ab"))
    one = (1,)
    cocycle = {(a, a): one, (b, b): one, (ab, ab): one,
               (a, ab): one, (ab, b): one, (b, a): one}
    return make_virtabelian(KLEIN, FgAbelian(0, (2,)), {}, cocycle)


def z4_inversion():
    return LayerAut(FgAbelian(0, (4,)), IntMatrix.identity(0), (-1,))


def test_quaternion_from_klein_cocycle():
    q = klein_quaternion()
    assert q.order == 8
    assert not q.is_abelian()
    assert is_isomorphic(to_cayley(q), from_catalog("Q8"))


def test_quaternion_versus_dihedral_over_z4():
    layer = FgAbelian(0, (4,))
    # t a t^-1 = a^-1 in both; t^2 = a^2 only in the quaternion group.
    q8 = make_virtabelian(Z2, layer, {T: z4_inversion()}, {(T, T): (2,)})
    d4 = make_virtabelian(Z2, layer, {T: z4_inversion()}, {})
    assert is_isomorphic(to_cayley(q8), from_catalog("Q8"))
    assert is_isomorphic(to_cayley(d4), from_catalog("D4"))
    assert not is_isomorphic(to_cayley(q8), to_cayley(d4))


def test_central_extension_of_z2_by_z4_is_z8():
    g = make_virtabelian(Z2, FgAbelian(0, (4,)), {}, {(T, T): (1,)})
    assert g.is_abelian()
    assert is_isomorphic(to_cayley(g), from_catalog("Z(8)"))


def test_cocycle_condition_rejected_when_violated():
    # With the inversion action, c(t,t) = 1 fails associativity:
    # t.(c(t,t)) = -1 != 1 = c(t,t) against the identity coset.
    with pytest.raises(InvalidInputError):
        make_virtabelian(Z2, FgAbelian(0, (4,)),
                         {T: z4_inversion()}, {(T, T): (1,)})


def test_identity_must_act_trivially():
    with pytest.raises(InvalidInputError):
        make_virtabelian(Z2, FgAbelian(0, (4,)), {0: z4_inversion()}, {})


def test_action_must_be_a_homomorphism():
    a = KLEIN.index_of("a")
    with pytest.raises(InvalidInputError):
        make_virtabelian(KLEIN, FgAbelian(0, (4,)), {a: z4_inversion()}, {})


def test_element_arithmetic_in_the_quaternion_model():
    layer = FgAbelian(0, (4,))
    q8 = make_virtabelian(Z2, layer, {T: z4_inversion()}, {(T, T): (2,)})
    t = ((0,), T)
    t2 = product(q8, t, t)
    assert t2 == ((2,), 0)
    t4 = one(q8)
    for _ in range(4):
        t4 = product(q8, t4, t)
    assert t4 == one(q8)
    t_inv = ((2,), T)  # t^3
    assert product(q8, t, t_inv) == one(q8)
    assert product(q8, t_inv, t) == one(q8)
    a = ((1,), 0)
    assert product(q8, product(q8, t, a), t_inv) == ((3,), 0)
    # The same relations in the table that to_cayley builds.
    cay = to_cayley(q8)
    at = {x: i for i, x in enumerate(elements(q8))}
    assert cay.table[at[t]][at[t]] == at[t2]
    assert cay.table[at[t]][at[t_inv]] == cay.identity_index == at[one(q8)]
    assert cay.table[cay.table[at[t]][at[a]]][at[t_inv]] == at[((3,), 0)]


def test_infinite_dihedral_center_is_trivial():
    layer = FgAbelian(1)
    flip = LayerAut(layer, IntMatrix.from_rows([[-1]]), ())
    dihedral = make_virtabelian(Z2, layer, {T: flip}, {})
    assert dihedral.order == INFINITY
    assert center_structure(dihedral) == FgAbelian(0, ())
    assert abelianization(dihedral) == FgAbelian(0, (2, 2))
    with pytest.raises(UnsupportedError):
        to_cayley(dihedral)


def test_flat_threefold_quotient_center():
    # Z^3 twisted by diag(1, -1, -1): the fixed line is the center.
    layer = FgAbelian(3)
    half_turn = LayerAut(layer, IntMatrix.from_rows(
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]]), ())
    split = make_virtabelian(Z2, layer, {T: half_turn}, {})
    assert center_structure(split) == FgAbelian(1, ())
    # In the split form the base survives abelianization as its own Z/2.
    assert abelianization(split) == FgAbelian(1, (2, 2, 2))

    # The screw motion t^2 = e1 makes the lift of t a translation; its
    # square lands in the fixed line, so one torsion factor dissolves.
    screw = make_virtabelian(Z2, layer, {T: half_turn}, {(T, T): (1, 0, 0)})
    assert center_structure(screw) == FgAbelian(1, ())
    assert abelianization(screw) == FgAbelian(1, (2, 2))


def test_direct_sum_group_center_is_everything():
    g = direct_sum_group(Z2, FgAbelian(2))
    assert g.is_abelian()
    assert center_structure(g) == FgAbelian(2, (2,))


def test_center_of_mixed_infinite_torsion_layer():
    layer = FgAbelian(1, (2,))
    assert center_structure(make_virtabelian(Z2, layer, {}, {})) == FgAbelian(1, (2, 2))


def test_conjugation_realizes_the_action():
    layer = FgAbelian(1)
    flip = LayerAut(layer, IntMatrix.from_rows([[-1]]), ())
    g = make_virtabelian(Z2, layer, {T: flip}, {})
    lift = ((0,), T)
    # Zero cocycle and T^2 = e: the lift is its own inverse.
    assert product(g, lift, lift) == one(g)
    x = ((5,), 0)
    assert product(g, product(g, lift, x), lift) == ((-5,), 0)


def test_quaternion_center_and_tabulated_center_agree():
    q = klein_quaternion()
    assert center_structure(q) == FgAbelian(0, (2,))
    cay = to_cayley(q)
    from thg.fingroup import center
    assert center(cay).order == 2


def test_extension_order_bookkeeping():
    assert to_cayley(klein_quaternion()).order == 8
    layer = FgAbelian(1)
    flip = LayerAut(layer, IntMatrix.from_rows([[-1]]), ())
    assert make_virtabelian(Z2, layer, {T: flip}, {}).order == INFINITY


def test_layer_aut_requires_invertible_torsion_scaling():
    with pytest.raises(InvalidInputError):
        LayerAut(FgAbelian(0, (4,)), IntMatrix.identity(0), (2,))
    with pytest.raises(InvalidInputError):
        LayerAut(FgAbelian(1), IntMatrix.from_rows([[2]]), ())


def test_make_summary_order_arithmetic():
    s = make_summary("base", 4, [("pi2", FgAbelian(0, (2,)), 3)], True)
    assert s.finite_order == 4 * 2 ** 3
    s = make_summary(1, 1, [("pi3", FgAbelian(1), 2)], True)
    assert s.finite_order == INFINITY
    s = make_summary(1, 1, [("pi3", FgAbelian(1), 0)], True)
    assert s.finite_order == 1


def test_identity_aut_is_identity():
    assert identity_aut(FgAbelian(2, (3,))).is_identity()
