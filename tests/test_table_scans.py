"""The extension kernels against scans of the tabulated extension.

On a finite extension to_cayley gives the whole multiplication table,
and strategies.py reads the answers off it with no presentation and no
generating set: the commutator quotient, the elements that commute with
everything, whether every pair commutes, and whether a map keeps all
|G|^2 products, and the derived subgroup.  The extensions are hypothesis draws of
strategies.extension over relabelled catalog bases of order up to 16,
up to order 64, past the order-24 cap of test_center.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (commutator_quotient, commutator_quotient_structure, finite_extensions,
                        is_isomorphism, relabel, scan_center, scan_is_abelian)

from thg.fingroup import SubgroupRef, find_isomorphism, subgroup_as_group
from thg.tower import abelianization, center_index, center_structure, to_cayley


@settings(derandomize=True, max_examples=60, deadline=None)
@given(finite_extensions(), st.randoms(use_true_random=False))
def test_kernels_agree_with_the_scans_of_the_table(g, rng):
    cay = to_cayley(g)
    assert abelianization(g) == commutator_quotient_structure(cay.table, cay.identity_index)
    # The center is abelian: its commutator quotient is itself.
    z = subgroup_as_group(cay, SubgroupRef(cay, scan_center(cay)))
    assert center_structure(g) == commutator_quotient_structure(z.table, z.identity_index)
    assert center_index(g) == cay.order // z.order
    assert g.is_abelian() == scan_is_abelian(cay)
    derived, _ = commutator_quotient(cay.table, cay.identity_index)
    assert [sig[3:] for sig in cay.signatures] == [
        (x in derived, cay.table[x][x] in derived) for x in range(cay.order)]
    copy = relabel(cay, rng)
    assert sorted(copy.signatures) == sorted(cay.signatures)
    phi = find_isomorphism(cay, copy)
    assert phi is not None and is_isomorphism(cay, copy, phi)

