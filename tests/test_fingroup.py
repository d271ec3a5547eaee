"""Finite group tables, subgroups, and isomorphism testing.

The backtracking isomorphism search is checked against an exhaustive
search over all bijections for orders up to 8, where 8! permutations
are still affordable.
"""

import itertools
import json
from collections import Counter

import pytest

from strategies import (commutator_quotient, commutator_quotient_structure, cosets,
                        scan_is_normal)

from thg.abelian import FgAbelian
from thg.errors import (InvalidInputError, ModelError, NotFoundError,
                        UnsupportedError)
from thg.fingroup import (CayleyGroup, SubgroupRef, abelian_structure,
                          abelianization, center, find_isomorphism,
                          from_catalog, full_subgroup, is_isomorphic,
                          subgroup_as_group, subgroup_generated)
from thg.spacecat import load_model


def brute_force_isomorphic(a: CayleyGroup, b: CayleyGroup) -> bool:
    """Try literally every bijection; only viable through order 8."""
    if a.order != b.order:
        return False
    n = a.order
    ids = list(range(n))
    for perm in itertools.permutations(ids):
        if perm[a.identity_index] != b.identity_index:
            continue
        if all(perm[a.table[i][j]] == b.table[perm[i]][perm[j]]
               for i in ids for j in ids):
            return True
    return False


def order_profile(g: CayleyGroup) -> Counter:
    """How many elements of each order, by powering every element."""
    return Counter(g.element_order(i) for i in range(g.order))


NAMED = ["trivial", "Z2", "Z(3)", "Z(4)", "Z2xZ2", "Z(6)", "Z(8)",
         "Z(4)xZ2", "Z2xZ2xZ2", "Q8", "D4"]


def test_isomorphism_agrees_with_exhaustive_search():
    groups = {name: from_catalog(name) for name in NAMED}
    for x, y in itertools.combinations_with_replacement(NAMED, 2):
        a, b = groups[x], groups[y]
        if a.order > 8 or b.order > 8:
            continue
        assert is_isomorphic(a, b) == brute_force_isomorphic(a, b), (x, y)


def test_isomorphism_is_a_homomorphism_when_found():
    a, b = from_catalog("Q8"), from_catalog("Q8")
    phi = find_isomorphism(a, b)
    assert phi is not None
    for i in range(a.order):
        for j in range(a.order):
            assert phi[a.table[i][j]] == b.table[phi[i]][phi[j]]


def test_order_profiles_separate_q8_from_d4():
    q8, d4 = from_catalog("Q8"), from_catalog("D4")
    assert order_profile(q8) == {1: 1, 2: 1, 4: 6}
    assert order_profile(d4) == {1: 1, 2: 5, 4: 2}
    assert not is_isomorphic(q8, d4)


def test_catalog_orders_and_commutativity():
    assert from_catalog("trivial").order == 1
    assert from_catalog("Z(12)").order == 12
    assert from_catalog("Z(4)xZ2").order == 8
    assert from_catalog("Z2xZ2").is_abelian()
    assert not from_catalog("Q8").is_abelian()
    assert not from_catalog("D4").is_abelian()
    with pytest.raises(NotFoundError):
        from_catalog("S3")


def test_center_of_quaternion_group():
    q8 = from_catalog("Q8")
    z = center(q8)
    assert z.order == 2
    assert sorted(z.names()) == ["-1", "1"]
    assert is_isomorphic(subgroup_as_group(q8, z), from_catalog("Z2"))


def test_center_of_dihedral_group():
    d4 = from_catalog("D4")
    assert center(d4).order == 2


def test_commutator_and_abelianization():
    q8 = from_catalog("Q8")
    comm, coset = commutator_quotient(q8.table, q8.identity_index)
    assert sorted(q8.element_names[x] for x in comm) == ["-1", "1"]
    assert len(set(coset.values())) == 4
    # Q8 and D4 both abelianize to the Klein four-group.
    assert abelianization(q8) == FgAbelian(0, (2, 2))
    assert abelianization(from_catalog("D4")) == FgAbelian(0, (2, 2))
    assert abelianization(from_catalog("Z(6)")) == FgAbelian(0, (6,))
    for name in GENERATED_GROUPS + ("Z(4)xZ2", "Z2xZ2xZ2", "Z(3)xZ(3)"):
        g = from_catalog(name)
        assert abelianization(g) == commutator_quotient_structure(
            g.table, g.identity_index), name


def test_abelian_structure_reads_off_invariant_factors():
    assert abelian_structure(from_catalog("Z(4)xZ2")) == FgAbelian(0, (2, 4))
    assert abelian_structure(from_catalog("Z2xZ2xZ2")) == FgAbelian(0, (2, 2, 2))
    assert abelian_structure(from_catalog("Z(6)")) == FgAbelian(0, (6,))
    with pytest.raises(InvalidInputError):
        abelian_structure(from_catalog("Q8"))


def test_subgroup_generated_closure():
    q8 = from_catalog("Q8")
    i = q8.index_of("i")
    ref = subgroup_generated(q8, [i])
    assert ref.order == 4
    assert sorted(ref.names()) == ["-1", "-i", "1", "i"]
    assert scan_is_normal(q8, ref.element_indices)  # index 2
    assert is_isomorphic(subgroup_as_group(q8, ref), from_catalog("Z(4)"))


def test_subgroup_ref_requires_closure():
    q8 = from_catalog("Q8")
    with pytest.raises(InvalidInputError):
        SubgroupRef(q8, (q8.identity_index, q8.index_of("i")))
    with pytest.raises(InvalidInputError):
        SubgroupRef(q8, ())  # must contain the identity


def test_full_and_trivial_subgroups():
    d4 = from_catalog("D4")
    assert full_subgroup(d4).order == 8
    assert subgroup_generated(d4, []).order == 1
    assert set(cosets(d4.table, full_subgroup(d4).element_indices).values()) == {0}


def test_element_orders_and_inverses():
    q8 = from_catalog("Q8")
    for i in range(q8.order):
        assert q8.table[i][q8.inverses[i]] == q8.identity_index
    assert q8.element_order(q8.index_of("-1")) == 2
    assert q8.element_order(q8.index_of("j")) == 4
    z6 = from_catalog("Z(6)")
    assert sorted(z6.element_order(i) for i in range(6)) == [1, 2, 3, 3, 6, 6]


def test_conjugation_fixes_center():
    d4 = from_catalog("D4")
    z = center(d4)
    for c in z.element_indices:
        for g in range(d4.order):
            assert d4.conjugate(g, c) == c


def test_bad_tables_rejected():
    with pytest.raises(InvalidInputError):
        CayleyGroup(order=2, element_names=("e", "a"),
                    table=((0, 1), (1, 1)), identity_index=0)  # not a bijection row
    with pytest.raises(InvalidInputError):
        CayleyGroup(order=2, element_names=("e", "e"),
                    table=((0, 1), (1, 0)), identity_index=0)  # duplicate names
    with pytest.raises(InvalidInputError):
        CayleyGroup(order=3, element_names=("e", "a", "b"),
                    table=((0, 1, 2), (1, 2, 0), (2, 1, 0)),
                    identity_index=0)  # second column repeats an element
    # A loop of order 5: a Latin square with identity that is not
    # associative, so only the associativity sweep can reject it.
    loop5 = ((0, 1, 2, 3, 4),
             (1, 0, 3, 4, 2),
             (2, 3, 4, 0, 1),
             (3, 4, 1, 2, 0),
             (4, 2, 0, 1, 3))
    with pytest.raises(InvalidInputError):
        CayleyGroup(order=5, element_names=("e", "a", "b", "c", "d"),
                    table=loop5, identity_index=0)


def test_associativity_is_checked_past_the_table_cap():
    # Z/66 with the intercalate at rows and columns 1 and 34 swapped: still
    # a Latin square with identity 0 and two-sided inverses, but
    # (1 1) 2 = 37 while 1 (1 2) = 4.
    n = 66
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    rows[1][1], rows[1][34] = rows[1][34], rows[1][1]
    rows[34][1], rows[34][34] = rows[34][34], rows[34][1]
    names = tuple(f"g{i}" for i in range(n))
    with pytest.raises(InvalidInputError, match="not associative"):
        CayleyGroup(n, names, tuple(map(tuple, rows)), 0)
    doc = {"kind": "space", "name": "loop66", "truncation": 1,
           "aspherical": True, "pi": {},
           "pi1": {"names": list(names), "table": rows, "identity": "g0"}}
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(doc))
    assert (exc.value.path, exc.value.message) == (
        "pi1", "multiplication table is not associative")


def test_quaternion_table_is_unchanged():
    # 1, -1, i, -i, j, -j, k, -k: the table the catalog has always built.
    assert from_catalog("Q8").table == (
        (0, 1, 2, 3, 4, 5, 6, 7), (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 1, 0, 6, 7, 5, 4), (3, 2, 0, 1, 7, 6, 4, 5),
        (4, 5, 7, 6, 1, 0, 2, 3), (5, 4, 6, 7, 0, 1, 3, 2),
        (6, 7, 4, 5, 3, 2, 1, 0), (7, 6, 5, 4, 2, 3, 0, 1))


def test_product_groups_multiply_componentwise():
    g = from_catalog("Z2xZ(3)")
    assert g.order == 6
    assert is_isomorphic(g, from_catalog("Z(6)"))
    assert abelian_structure(g) == FgAbelian(0, (6,))


@pytest.mark.parametrize("name", ["Z(65)", "Z(4)xZ(4)xZ(8)", "Z(1000000000)"])
def test_catalog_groups_past_the_table_cap_are_refused(name):
    with pytest.raises(UnsupportedError):
        from_catalog(name)


def test_catalog_product_at_the_table_cap_builds():
    assert from_catalog("Q8xZ(4)xZ2").order == 64


# The named catalog groups and the product bases of the benchmark's
# algebra-kernels workload, up to the table cap.
GENERATED_GROUPS = ("trivial", "Z(1)", "Z2", "Z(2)", "Z(4)", "Z(6)", "Z2xZ2",
                    "Q8", "D4", "Q8xZ2", "D4xZ2", "Q8xZ(4)", "D4xZ(4)",
                    "Q8xZ(4)xZ2", "D4xZ(4)xZ2")


@pytest.mark.parametrize("name", GENERATED_GROUPS)
def test_generators_are_a_short_generating_set_computed_once(name):
    g = from_catalog(name)
    gens = g.generators
    assert subgroup_generated(g, gens).order == g.order
    assert g.identity_index not in gens
    # Each greedy generator at least doubles the subgroup generated so far.
    assert 2 ** len(gens) <= g.order
    assert g.generators is gens
