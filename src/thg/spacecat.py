"""Space and transformation models: schema, validation, catalog, orbits.

Models are plain JSON documents (schema in the README).  Loading is
strict: unknown keys, malformed groups, or inconsistent homotopy data are
rejected with the offending field path.  Each loaded model keeps its raw
document, so the canonical serialization round-trips bit for bit.

Models are immutable, so what is derived from one (a space's Gottlieb
table; the sigma_1 extension and its table, the orbit space and G0 of a
transformation) is built on first use and kept on the model.

Homotopy data is always explicitly truncated.  Asking for a degree past
the truncation is an error, never a silent zero.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Tuple, Union)

from .abelian import (TRIVIAL, FgAbelian, INFINITY, IntMatrix,
                      subgroup_index, subgroup_structure)
from .errors import (InsufficientDataError, InvalidInputError, ModelError,
                     NotFoundError, UnsupportedError)
from .fingroup import (COORD_CAP, TABLE_CAP, CayleyGroup, SubgroupRef,
                       abelianization as group_abelianization, from_catalog,
                       full_subgroup, center as group_center, subgroup_as_group,
                       subgroup_generated)
from .tower import (LayerAut, VirtAbelian, abelianization, center_index,
                    center_structure, check_action, identity_aut,
                    make_virtabelian, to_cayley)

# Every group value answers order, rank, is_trivial(), is_abelian() and
# describe().  An isinstance test is left only where the form itself
# matters: a check on document input, or an algorithm chosen by form.
GroupLike = Union[CayleyGroup, FgAbelian, VirtAbelian]


@dataclass(frozen=True)
class SubgroupData:
    """A subgroup of some ambient homotopy group, by one of five recipes.

    kind "full" and "trivial" speak for themselves; "generators" carries
    coordinate vectors into an abelian ambient; "elements" lists member
    names in a finite ambient; "center" marks the center of the ambient,
    resolved on demand (orbit spaces use it for their degree-1 group).
    """

    kind: str
    generators: Tuple[Tuple[int, ...], ...] = ()
    elements: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("full", "trivial", "generators", "elements", "center"):
            raise InvalidInputError(f"unknown subgroup kind {self.kind!r}")


FULL = SubgroupData("full")
TRIVIAL_SUBGROUP = SubgroupData("trivial")
CENTER = SubgroupData("center")


@dataclass(frozen=True)
class SpaceModel:
    """A based space given by truncated homotopy data."""

    name: str
    truncation: int
    aspherical: bool
    pi1: GroupLike
    pi: Dict[int, FgAbelian]
    gottlieb: Dict[int, SubgroupData]
    whitehead_pairs: Optional[Dict[Tuple[int, int], tuple]]  # None means trivial
    pi1_action_trivial: bool
    raw: Optional[dict] = None
    warnings: Tuple[str, ...] = ()

    def pi_at(self, i: int) -> Union[GroupLike, FgAbelian]:
        if i < 1:
            raise InvalidInputError("homotopy degree must be at least 1")
        if i == 1:
            return self.pi1
        if self.aspherical:
            # Known in every degree, not just up to the truncation.
            return TRIVIAL
        if i > self.truncation:
            raise InsufficientDataError(
                f"{self.name} carries data up to degree {self.truncation}; "
                f"degree {i} was requested")
        return self.pi[i]

    @cached_property
    def gottlieb_table(self) -> Dict[int, Tuple[Optional[int], Optional[FgAbelian]]]:
        """degree i -> ([pi_i : G_i], G_i as an FgAbelian), in increasing
        degree, for each degree whose pi_i is nontrivial; None marks G_i
        unknown, or (structure only) not abelian.  At every other degree
        G_i = pi_i is trivial: index 1, structure TRIVIAL (gottlieb_entry)."""
        table = {}
        for i in range(1, (1 if self.aspherical else self.truncation) + 1):
            grp, data = self.pi_at(i), self.gottlieb.get(i)
            if not grp.is_trivial():
                table[i] = (None, None) if data is None else (
                    subgroup_index_in(grp, data), subgroup_structure_in(grp, data))
        return table

    def gottlieb_entry(self, i: int) -> Tuple[Optional[int], Optional[FgAbelian]]:
        """gottlieb_table's entry at degree i; past the data, an error."""
        self.pi_at(i)
        return self.gottlieb_table.get(i, (1, TRIVIAL))

    def whitehead_trivial(self) -> bool:
        if self.whitehead_pairs is None:
            return True
        return all(_nested_all_zero(tbl) for tbl in self.whitehead_pairs.values())


@dataclass(frozen=True)
class TransformationModel:
    """A finite group acting on a space, with per-degree induced maps."""

    name: str
    space: SpaceModel
    group: CayleyGroup
    free: bool
    action_by_degree: Dict[int, Tuple[LayerAut, ...]]
    cocycle: Optional[Dict[Tuple[int, int], Tuple[int, ...]]]
    g0_explicit: Optional[SubgroupRef]
    sphere_dimension: Optional[int]
    raw: Optional[dict] = None

    def action_trivial_at(self, degree: int) -> bool:
        self.space.pi_at(degree)  # a degree past the data is an error
        return all(aut.is_identity()
                   for aut in self.action_by_degree.get(degree, ()))

    @cached_property
    def sigma1_extension(self) -> VirtAbelian:
        """sigma_1(X, G): pi_1(X) extended by G through the degree-1
        action and the cocycle, validated when built."""
        pi1 = self.space.pi1
        if pi1.is_trivial():
            return make_virtabelian(self.group, TRIVIAL, {}, {})
        if not isinstance(pi1, FgAbelian):
            raise UnsupportedError(
                "sigma_1 and the orbit fundamental group are built over an "
                "abelian or trivial fundamental group only")
        if self.cocycle is None:
            raise InvalidInputError(
                "sigma_1 and the orbit fundamental group need an explicit "
                "cocycle table; write {} for the zero cocycle")
        # With no degree-1 table, make_virtabelian fills in the identity.
        action = dict(enumerate(self.action_by_degree.get(1, ())))
        return make_virtabelian(self.group, pi1, action, self.cocycle)

    @cached_property
    def sigma1_table(self) -> Optional[CayleyGroup]:
        """sigma_1(X, G) as a multiplication table, or None when it is
        infinite or past TABLE_CAP.  The one tabulation of the extension:
        the orbit space, sigma_1 and G sigma_1 all read it."""
        ext = self.sigma1_extension
        order = ext.order
        if order == INFINITY or order > TABLE_CAP:
            return None
        return to_cayley(ext)

    def derive(self, key: str, build: Callable[["TransformationModel"], object]):
        """build(self), run on first use and kept on the model under key,
        beside the cached properties (for the orbit space and G0)."""
        if key not in self.__dict__:
            self.__dict__[key] = build(self)
        return self.__dict__[key]


Model = Union[SpaceModel, TransformationModel]
Resolver = Callable[[str], SpaceModel]


def _nested_all_zero(t) -> bool:
    if isinstance(t, int):
        return t == 0
    return all(_nested_all_zero(x) for x in t)


# ---------------------------------------------------------------------------
# Subgroup bookkeeping


def subgroup_rows(ambient: GroupLike,
                  data: SubgroupData) -> Tuple[Tuple[int, ...], ...]:
    """Generator rows, in ambient coordinates, of the described subgroup
    of an abelian ambient group.

    >>> subgroup_rows(FgAbelian(2), FULL)
    ((1, 0), (0, 1))
    """
    if data.kind == "elements":
        raise InvalidInputError("element lists need a finite ambient group")
    if not isinstance(ambient, FgAbelian):
        raise InvalidInputError("generator matrices need an abelian ambient group")
    if data.kind == "generators":
        return data.generators
    if data.kind == "trivial":
        return ()
    # full, and center, which is everything in an abelian group
    n = ambient.n_coords
    return tuple(tuple(1 if k == a else 0 for k in range(n)) for a in range(n))


def subgroup_ref(ambient: GroupLike, data: SubgroupData) -> SubgroupRef:
    """The described subgroup of a finite ambient group, by its members.

    >>> subgroup_ref(from_catalog("Q8"), CENTER).names()
    ('1', '-1')
    """
    if data.kind == "generators":
        raise InvalidInputError("generator matrices need an abelian ambient group")
    if not isinstance(ambient, CayleyGroup):
        raise InvalidInputError("element lists need a finite ambient group")
    if data.kind == "full":
        return full_subgroup(ambient)
    if data.kind == "center":
        return group_center(ambient)
    names = data.elements if data.kind == "elements" else ()
    return subgroup_generated(ambient, [ambient.index_of(n) for n in names])


def subgroup_index_in(ambient: GroupLike, data: SubgroupData) -> int:
    """Index of the described subgroup in its ambient group, or INFINITY.

    >>> subgroup_index_in(FgAbelian(1), SubgroupData("generators", ((2,),)))
    2
    >>> subgroup_index_in(FgAbelian(0, (4,)), TRIVIAL_SUBGROUP)
    4
    """
    if data.kind == "full":
        return 1
    if data.kind == "trivial":
        return ambient.order
    if isinstance(ambient, FgAbelian):
        rows = subgroup_rows(ambient, data)
        return subgroup_index(ambient, IntMatrix.from_rows(rows, cols=ambient.n_coords))
    if isinstance(ambient, CayleyGroup) or data.kind != "center":
        return ambient.order // subgroup_ref(ambient, data).order
    return center_index(ambient)


def subgroup_structure_in(ambient: GroupLike, data: SubgroupData) -> Optional[FgAbelian]:
    """Isomorphism type of the described subgroup, when abelian; else None."""
    if data.kind == "trivial":
        return TRIVIAL
    if isinstance(ambient, FgAbelian):
        if data.kind in ("full", "center"):
            return ambient  # both are the whole group here
        rows = subgroup_rows(ambient, data)
        return subgroup_structure(ambient, IntMatrix.from_rows(rows, cols=ambient.n_coords))
    if isinstance(ambient, CayleyGroup):
        grp = subgroup_as_group(ambient, subgroup_ref(ambient, data))
        return group_abelianization(grp) if grp.is_abelian() else None
    # VirtAbelian ambient.
    if data.kind == "center":
        return center_structure(ambient)
    if data.kind == "full" and ambient.is_abelian():
        return abelianization(ambient)
    return None


# ---------------------------------------------------------------------------
# Parsing helpers


def _fail(path: str, message: str):
    raise ModelError(path, message)


def _as_map(raw, path: str) -> dict:
    if not isinstance(raw, dict):
        _fail(path, f"expected an object, got {type(raw).__name__}")
    return raw


def _check_keys(raw: dict, path: str, required: Sequence[str], optional: Sequence[str] = ()):
    for key in raw:
        if key not in required and key not in optional:
            _fail(f"{path}.{key}" if path else key, "unknown key")
    for key in required:
        if key not in raw:
            _fail(path or key, f"missing required key {key!r}")


def _as_bool(raw, path: str) -> bool:
    if not isinstance(raw, bool):
        _fail(path, "expected true or false")
    return raw


def _as_int(raw, path: str) -> int:
    if not isinstance(raw, int) or isinstance(raw, bool):
        _fail(path, "expected an integer")
    return raw


def _as_str(raw, path: str) -> str:
    if not isinstance(raw, str):
        _fail(path, "expected a string")
    return raw


def _as_int_list(raw, path: str) -> List[int]:
    if not isinstance(raw, list):
        _fail(path, "expected a list of integers")
    return [_as_int(v, f"{path}[{i}]") for i, v in enumerate(raw)]


def _as_matrix(raw, path: str) -> List[List[int]]:
    if not isinstance(raw, list):
        _fail(path, "expected a matrix (list of rows)")
    return [_as_int_list(row, f"{path}[{i}]") for i, row in enumerate(raw)]


def _is_positive_decimal(text: str) -> bool:
    """Whether text is a positive integer in ASCII decimal without a
    leading zero, sign, blank or separator: exactly what [1-9][0-9]*
    matches.  isascii() excludes digits such as "²", which isdigit()
    accepts and int() refuses."""
    return text.isdigit() and text.isascii() and text[0] != "0"


def _degree_key(key: str, path: str, low: int, high: int) -> int:
    if not _is_positive_decimal(key):
        _fail(f"{path}.{key}", "degree keys must be positive integers")
    # A key with more digits than high is past it; int() refuses one of
    # over 4,300 digits.
    if len(key) > len(str(high)) or not low <= int(key) <= high:
        _fail(f"{path}.{key}", f"degree must lie between {low} and {high}")
    return int(key)


def parse_abelian_spec(raw, path: str) -> FgAbelian:
    obj = _as_map(raw, path)
    _check_keys(obj, path, required=("rank", "torsion"))
    rank = _as_int(obj["rank"], f"{path}.rank")
    if rank > COORD_CAP:
        _fail(f"{path}.rank", f"rank {rank} is past the cap of {COORD_CAP} "
                              f"coordinates")
    torsion = _as_int_list(obj["torsion"], f"{path}.torsion")
    if rank + len(torsion) > COORD_CAP:
        _fail(f"{path}.torsion", f"{rank + len(torsion)} coordinates are past "
                                 f"the cap of {COORD_CAP}")
    try:
        return FgAbelian(rank, tuple(torsion))
    except InvalidInputError as exc:
        _fail(f"{path}.torsion", str(exc))


def _parse_cayley_table(obj: dict, path: str) -> CayleyGroup:
    _check_keys(obj, path, required=("names", "table", "identity"))
    names_raw = obj["names"]
    if not isinstance(names_raw, list) or not names_raw:
        _fail(f"{path}.names", "expected a non-empty list of names")
    names = tuple(_as_str(n, f"{path}.names[{i}]") for i, n in enumerate(names_raw))
    table = _as_matrix(obj["table"], f"{path}.table")
    ident = _as_str(obj["identity"], f"{path}.identity")
    if ident not in names:
        _fail(f"{path}.identity", f"identity {ident!r} is not among the names")
    try:
        return CayleyGroup(len(names), names, tuple(tuple(r) for r in table),
                           names.index(ident))
    except InvalidInputError as exc:
        _fail(path, str(exc))


def parse_layer_aut(raw, layer: FgAbelian, path: str) -> LayerAut:
    """An automorphism given as "identity" or an n x n integer matrix.

    The matrix must respect the coordinate split: an arbitrary unimodular
    block on the free part, a diagonal of +-1 on the torsion part, zeros
    between.
    """
    if raw == "identity":
        return identity_aut(layer)
    mat = _as_matrix(raw, path)
    n = layer.n_coords
    if len(mat) != n or any(len(row) != n for row in mat):
        _fail(path, f"expected a {n} x {n} matrix")
    r = layer.rank
    free = [row[:r] for row in mat[:r]]
    signs = []
    for i in range(r, n):
        for j in range(n):
            if j != i and mat[i][j] != 0:
                _fail(path, "torsion rows may only touch their own coordinate")
        signs.append(mat[i][i])
    for i in range(r):
        for j in range(r, n):
            if mat[i][j] != 0:
                _fail(path, "free rows may not touch torsion coordinates")
    try:
        return LayerAut(layer, IntMatrix.from_rows(free, cols=r), tuple(signs))
    except InvalidInputError as exc:
        _fail(path, str(exc))


def parse_group_spec(raw, path: str) -> GroupLike:
    obj = _as_map(raw, path)
    keys = set(obj)
    if keys == {"rank", "torsion"}:
        return parse_abelian_spec(obj, path)
    if keys == {"catalog"}:
        name = _as_str(obj["catalog"], f"{path}.catalog")
        try:
            return from_catalog(name)
        except (NotFoundError, UnsupportedError) as exc:
            _fail(f"{path}.catalog", str(exc))
    if keys == {"names", "table", "identity"}:
        return _parse_cayley_table(obj, path)
    if keys == {"base", "layer", "action", "cocycle"}:
        base = parse_group_spec(obj["base"], f"{path}.base")
        if not isinstance(base, CayleyGroup):
            _fail(f"{path}.base", "extension base must be a finite group")
        layer = parse_abelian_spec(obj["layer"], f"{path}.layer")
        action = _parse_action_for_layer(obj["action"], base, layer, f"{path}.action")
        cocycle = _parse_cocycle(obj["cocycle"], base, layer, f"{path}.cocycle")
        try:
            return make_virtabelian(base, layer, action, cocycle)
        except InvalidInputError as exc:
            _fail(path, str(exc))
    _fail(path, "unrecognized group form (expected rank/torsion, catalog, "
                "names/table/identity, or base/layer/action/cocycle)")


def _parse_action_for_layer(raw, base: CayleyGroup, layer: FgAbelian,
                            path: str) -> Dict[int, LayerAut]:
    obj = _as_map(raw, path)
    out: Dict[int, LayerAut] = {}
    for name, mat in obj.items():
        try:
            q = base.index_of(name)
        except NotFoundError:
            _fail(f"{path}.{name}", "not an element of the base group")
        out[q] = parse_layer_aut(mat, layer, f"{path}.{name}")
    return out


def _split_pair_key(key: str, group: CayleyGroup, path: str) -> Tuple[int, int]:
    """Split "q,r" on the comma that makes both halves element names."""
    hits = []
    for pos in range(1, len(key)):
        if key[pos] != ",":
            continue
        left, right = key[:pos], key[pos + 1:]
        if left in group.element_names and right in group.element_names:
            hits.append((group.element_names.index(left),
                         group.element_names.index(right)))
    if not hits:
        _fail(path, f"key {key!r} does not split into two element names")
    if len(hits) > 1:
        _fail(path, f"key {key!r} splits ambiguously; rename the elements")
    return hits[0]


def _parse_cocycle(raw, base: CayleyGroup, layer: FgAbelian,
                   path: str) -> Dict[Tuple[int, int], Tuple[int, ...]]:
    obj = _as_map(raw, path)
    out: Dict[Tuple[int, int], Tuple[int, ...]] = {}
    for key, value in obj.items():
        pair = _split_pair_key(key, base, f"{path}.{key}")
        coords = _as_int_list(value, f"{path}.{key}")
        if len(coords) != layer.n_coords:
            _fail(f"{path}.{key}",
                  f"expected {layer.n_coords} coordinates, got {len(coords)}")
        out[pair] = layer.reduce(coords)
    return out


def parse_subgroup_spec(raw, path: str) -> SubgroupData:
    if raw == "full":
        return FULL
    if raw == "trivial":
        return TRIVIAL_SUBGROUP
    obj = _as_map(raw, path)
    keys = set(obj)
    if keys == {"generators"}:
        gens = _as_matrix(obj["generators"], f"{path}.generators")
        return SubgroupData("generators", tuple(tuple(g) for g in gens))
    if keys == {"elements"}:
        if not isinstance(obj["elements"], list):
            _fail(f"{path}.elements", "expected a list of element names")
        names = tuple(_as_str(n, f"{path}.elements[{i}]")
                      for i, n in enumerate(obj["elements"]))
        return SubgroupData("elements", elements=names)
    _fail(path, 'unrecognized subgroup form (expected "full", "trivial", '
                "generators, or elements)")


def _validate_subgroup_against(data: SubgroupData, ambient: GroupLike,
                               path: str, warnings: List[str],
                               pi1_action_trivial: bool, degree: int):
    if data.kind == "full" and degree == 1 and not pi1_action_trivial:
        warnings.append(
            f"{path}: a full degree-1 evaluation subgroup is inconsistent "
            "with a nontrivial fundamental group action on higher degrees")
    if data.kind == "generators":
        if not isinstance(ambient, FgAbelian):
            _fail(path, "generator matrices need an abelian ambient group")
        for i, gen in enumerate(data.generators):
            if len(gen) != ambient.n_coords:
                _fail(f"{path}.generators[{i}]",
                      f"expected {ambient.n_coords} coordinates")
        return
    if data.kind == "elements":
        if not isinstance(ambient, CayleyGroup):
            _fail(path, "element lists need a finite ambient group")
        try:
            indices = tuple(sorted(ambient.index_of(n) for n in data.elements))
        except NotFoundError as exc:
            _fail(path, str(exc))
        if len(set(indices)) < len(indices):
            # Every name is an element, so one repeats within |G| + 1 names.
            twice = next(n for i, n in enumerate(data.elements) if n in data.elements[:i])
            _fail(path, f"element {twice!r} is listed twice")
        closed = subgroup_generated(ambient, indices)
        if closed.element_indices != indices:
            _fail(path, "element list is not closed under multiplication")
    # Gottlieb: G_1 always lands in the center, which a non-abelian group
    # is not all of.
    if degree == 1 and data.kind != "trivial" and not ambient.is_abelian() and (
            data.kind == "full"
            or not set(indices) <= set(group_center(ambient).element_indices)):
        warnings.append(f"{path}: degree-1 evaluation subgroup exceeds the "
                        "center of the fundamental group")


# ---------------------------------------------------------------------------
# Space documents


def _parse_whitehead(raw, pi_of, truncation: int, path: str):
    if raw == "trivial":
        return None
    obj = _as_map(raw, path)
    out: Dict[Tuple[int, int], tuple] = {}
    for key, tables in obj.items():
        left, comma, right = key.partition(",")
        if not (comma and _is_positive_decimal(left)
                and _is_positive_decimal(right)):
            _fail(f"{path}.{key}", 'pairing keys look like "2,3"')
        if left == "1" or right == "1":
            _fail(f"{path}.{key}", "pairings below degree 2 are not supported")
        # A degree with more digits than the truncation lands past it;
        # int() refuses one of over 4,300 digits.
        if (max(len(left), len(right)) > len(str(truncation))
                or int(left) + int(right) - 1 > truncation):
            _fail(f"{path}.{key}", "pairing lands past the truncation degree")
        i, j = int(left), int(right)
        gi, gj, target = pi_of(i), pi_of(j), pi_of(i + j - 1)
        if not isinstance(tables, list) or len(tables) != gi.n_coords:
            _fail(f"{path}.{key}", f"expected {gi.n_coords} rows")
        table = []
        for a, row in enumerate(tables):
            if not isinstance(row, list) or len(row) != gj.n_coords:
                _fail(f"{path}.{key}[{a}]", f"expected {gj.n_coords} entries")
            table.append(tuple(
                tuple(_as_int_list(cell, f"{path}.{key}[{a}][{b}]"))
                for b, cell in enumerate(row)))
            for b, cell in enumerate(table[-1]):
                if len(cell) != target.n_coords:
                    _fail(f"{path}.{key}[{a}][{b}]",
                          f"expected {target.n_coords} coordinates")
        out[(i, j)] = tuple(table)
    return out


def _parse_action_table(raw, group: CayleyGroup,
                        layer_at: Callable[[int], GroupLike], low: int,
                        high: int, path: str,
                        group_label: str) -> Dict[int, Tuple[LayerAut, ...]]:
    """One automorphism per element of group in each degree named by an
    {element: {degree: matrix}} table, degrees low..high with layers
    layer_at(degree).  Elements left out act as the identity, and each
    degree is checked to be an action.  "identity" may stand on a
    non-abelian layer, and is then skipped."""
    obj = _as_map(raw, path)
    staged: Dict[int, Dict[int, LayerAut]] = {}
    for name, degrees in obj.items():
        try:
            q = group.index_of(name)
        except NotFoundError:
            _fail(f"{path}.{name}", f"not an element of the {group_label}")
        degmap = _as_map(degrees, f"{path}.{name}")
        for key, mat in degmap.items():
            i = _degree_key(key, f"{path}.{name}", low, high)
            layer = layer_at(i)
            if not isinstance(layer, FgAbelian):
                if mat == "identity":
                    continue
                _fail(f"{path}.{name}.{key}",
                      "matrices need an abelian homotopy group in this degree")
            staged.setdefault(i, {})[q] = parse_layer_aut(
                mat, layer, f"{path}.{name}.{key}")
    out: Dict[int, Tuple[LayerAut, ...]] = {}
    for i, table in staged.items():
        ident = identity_aut(layer_at(i))
        auts = tuple(table.get(q, ident) for q in range(group.order))
        try:
            check_action(group, auts)
        except InvalidInputError as exc:
            _fail(path, f"degree {i}: {exc}")
        out[i] = auts
    return out


def _parse_pi1_action(raw, pi1: GroupLike, pi: Dict[int, FgAbelian],
                      truncation: int, path: str) -> bool:
    """Returns whether the action is trivial; explicit tables are validated."""
    if raw == "trivial":
        return True
    obj = _as_map(raw, path)
    if not isinstance(pi1, CayleyGroup):
        _fail(path, "explicit fundamental group actions need a finite "
                    "fundamental group given as a table or catalog name")
    table = _parse_action_table(obj, pi1, lambda i: pi.get(i, TRIVIAL), 2,
                                truncation, path, "fundamental group")
    return all(a.is_identity() for auts in table.values() for a in auts)


def _space_from_doc(doc: dict, path: str = "") -> SpaceModel:
    _check_keys(doc, path,
                required=("kind", "name", "truncation", "aspherical", "pi1", "pi"),
                optional=("gottlieb", "whitehead", "pi1_action", "notes"))
    name = _as_str(doc["name"], _join(path, "name"))
    truncation = _as_int(doc["truncation"], _join(path, "truncation"))
    if truncation < 1:
        _fail(_join(path, "truncation"), "truncation must be at least 1")
    aspherical = _as_bool(doc["aspherical"], _join(path, "aspherical"))
    pi1 = parse_group_spec(doc["pi1"], _join(path, "pi1"))
    pi_raw = _as_map(doc["pi"], _join(path, "pi"))
    pi: Dict[int, FgAbelian] = {}
    for key, spec in pi_raw.items():
        i = _degree_key(key, _join(path, "pi"), 2, truncation)
        pi[i] = parse_abelian_spec(spec, _join(path, f"pi.{key}"))
    if aspherical:
        for i, grp in pi.items():
            if not grp.is_trivial():
                _fail(_join(path, f"pi.{i}"),
                      "an aspherical space cannot carry higher homotopy")
    else:
        for i in range(2, truncation + 1):
            if i not in pi:
                _fail(_join(path, "pi"),
                      f"degree {i} is missing; every degree up to the "
                      "truncation must be listed")

    whitehead = _parse_whitehead(doc.get("whitehead", "trivial"),
                                 lambda i: pi.get(i, TRIVIAL),
                                 truncation, _join(path, "whitehead"))
    pi1_action_trivial = _parse_pi1_action(doc.get("pi1_action", "trivial"),
                                           pi1, pi, truncation,
                                           _join(path, "pi1_action"))
    warnings: List[str] = []
    gottlieb: Dict[int, SubgroupData] = {}
    got_raw = _as_map(doc.get("gottlieb", {}), _join(path, "gottlieb"))
    for key, spec in got_raw.items():
        i = _degree_key(key, _join(path, "gottlieb"), 1, truncation)
        data = parse_subgroup_spec(spec, _join(path, f"gottlieb.{key}"))
        # As pi_at reads it: an aspherical space lists no higher degrees.
        ambient = pi1 if i == 1 else TRIVIAL if aspherical else pi[i]
        _validate_subgroup_against(data, ambient, _join(path, f"gottlieb.{key}"),
                                   warnings, pi1_action_trivial, i)
        gottlieb[i] = data
    if "notes" in doc and not isinstance(doc["notes"], str):
        _fail(_join(path, "notes"), "expected a string")
    return SpaceModel(name=name, truncation=truncation, aspherical=aspherical,
                      pi1=pi1, pi=pi, gottlieb=gottlieb,
                      whitehead_pairs=whitehead,
                      pi1_action_trivial=pi1_action_trivial,
                      raw=doc, warnings=tuple(warnings))


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


# ---------------------------------------------------------------------------
# Transformation documents


def _transformation_from_doc(doc: dict, name: str,
                             resolver: Optional[Resolver]) -> TransformationModel:
    _check_keys(doc, "",
                required=("kind", "space", "group", "free", "action"),
                optional=("cocycle", "g0", "sphere_dimension", "notes"))
    space_raw = doc["space"]
    if isinstance(space_raw, str):
        if resolver is None:
            _fail("space", f"space reference {space_raw!r} needs a catalog to "
                           "resolve against")
        try:
            space = resolver(space_raw)
        except (NotFoundError, KeyError):
            _fail("space", f"unknown space {space_raw!r}")
    else:
        space = _space_from_doc(_as_map(space_raw, "space"), "space")
    group = parse_group_spec(doc["group"], "group")
    if not isinstance(group, CayleyGroup):
        _fail("group", "the acting group must be finite (catalog name or table)")
    free = _as_bool(doc["free"], "free")

    action_by_degree = _parse_action_table(doc["action"], group, space.pi_at,
                                           1, space.truncation, "action",
                                           "acting group")

    cocycle: Optional[Dict[Tuple[int, int], Tuple[int, ...]]] = None
    if "cocycle" in doc:
        pi1 = space.pi1
        if not isinstance(pi1, FgAbelian):
            _fail("cocycle", "cocycle tables need an abelian fundamental group")
        cocycle = _parse_cocycle(doc["cocycle"], group, pi1, "cocycle")

    g0_explicit: Optional[SubgroupRef] = None
    if "g0" in doc:
        if not isinstance(doc["g0"], list):
            _fail("g0", "expected a list of element names")
        names = [_as_str(n, f"g0[{i}]") for i, n in enumerate(doc["g0"])]
        try:
            indices = tuple(sorted(group.index_of(n) for n in names))
        except NotFoundError as exc:
            _fail("g0", str(exc))
        try:
            g0_explicit = SubgroupRef(group, indices)
        except InvalidInputError as exc:
            _fail("g0", str(exc))

    sphere_dimension: Optional[int] = None
    if "sphere_dimension" in doc:
        sphere_dimension = _as_int(doc["sphere_dimension"], "sphere_dimension")
        if sphere_dimension < 1:
            _fail("sphere_dimension", "must be at least 1")
        if sphere_dimension > space.truncation:
            _fail("sphere_dimension", "exceeds the space truncation")
        top = space.pi_at(sphere_dimension)
        if top != FgAbelian(1):
            _fail("sphere_dimension",
                  "the marked degree must carry an infinite cyclic group")
    if "notes" in doc and not isinstance(doc["notes"], str):
        _fail("notes", "expected a string")

    model = TransformationModel(name=name, space=space, group=group, free=free,
                                action_by_degree=action_by_degree,
                                cocycle=cocycle, g0_explicit=g0_explicit,
                                sphere_dimension=sphere_dimension, raw=doc)
    if cocycle is not None:
        # Building the extension validates normalization, the cocycle
        # condition, and that the degree-1 action is a homomorphism; the
        # model keeps it for sigma_1 and the orbit space.
        try:
            model.sigma1_extension
        except InvalidInputError as exc:
            _fail("cocycle", str(exc))
    return model


# ---------------------------------------------------------------------------
# Entry points


def load_model(document: Union[bytes, str], name: Optional[str] = None,
               resolver: Optional[Resolver] = None) -> Model:
    """Parse and fully validate one JSON model document.

    name labels transformation models (their files carry no name field);
    conventionally the file stem.  resolver maps space names to loaded
    SpaceModels for transformation files that reference by name.
    """
    doc = _parse_document(document, "")
    if doc["kind"] == "space":
        return _space_from_doc(doc)
    return _transformation_from_doc(doc, name or "unnamed", resolver)


def _parse_document(document: Union[bytes, str], path: str) -> dict:
    """The JSON object in document, of kind "space" or "transformation";
    anything else is a ModelError at path (a file name, or "")."""
    try:
        if isinstance(document, bytes):
            document = document.decode("utf-8")
        doc = json.loads(document)
    except UnicodeDecodeError as exc:
        raise ModelError(path, f"not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ModelError(path, f"not valid JSON: {exc}") from None
    except ValueError as exc:  # an integer past Python's digit limit
        raise ModelError(path, f"unreadable number: {exc}") from None
    obj = _as_map(doc, path)
    if obj.get("kind") not in ("space", "transformation"):
        _fail(_join(path, "kind"), 'expected "space" or "transformation"')
    return obj


def serialize(model: Model) -> str:
    """Canonical JSON for a loaded model: sorted keys, two-space indent.

    Derived models (orbit spaces, templates built without documents) have
    no file form and are rejected.
    """
    if model.raw is None:
        raise UnsupportedError("derived models have no canonical document")
    return json.dumps(model.raw, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Orbit spaces


def orbit_space(tg: TransformationModel) -> SpaceModel:
    """The quotient space of a free action, with transported homotopy data.

    The fundamental group becomes the extension of pi1 by the acting
    group (tabulated outright when small and finite); higher groups copy
    over along the covering identification, and so do their evaluation
    subgroups.  The degree-1 subgroup is filled in only where a theorem
    provides it: centers for aspherical quotients, and centers again for
    quotients of odd spheres.  Built once per model; every call returns
    the same object.
    """
    return tg.derive("orbit_space", _build_orbit_space)


def _build_orbit_space(tg: TransformationModel) -> SpaceModel:
    if not tg.free:
        raise UnsupportedError("orbit spaces are only constructed for free actions")
    X = tg.space
    pi1X = X.pi1
    new_pi1: GroupLike
    if pi1X.is_trivial():
        new_pi1 = tg.group
    else:
        table = tg.sigma1_table
        new_pi1 = table if table is not None else tg.sigma1_extension

    gottlieb: Dict[int, SubgroupData] = {
        i: data for i, data in X.gottlieb.items() if i >= 2}
    if X.aspherical:
        gottlieb[1] = CENTER
    elif (tg.sphere_dimension is not None and tg.sphere_dimension % 2 == 1
          and pi1X.is_trivial()):
        # Free actions on odd spheres: the quotient's degree-1 group is
        # the center of its fundamental group (Oprea).
        gottlieb[1] = CENTER

    # A degree with no action entry acts as the identity, so only the
    # listed degrees are read: the truncation of an aspherical space is
    # not bounded by the size of its document.
    action_trivial = X.pi1_action_trivial and all(
        tg.action_trivial_at(i) for i in tg.action_by_degree if i >= 2)
    return SpaceModel(
        name=f"{X.name}/{tg.name}",
        truncation=X.truncation,
        aspherical=X.aspherical,
        pi1=new_pi1,
        pi=dict(X.pi),
        gottlieb=gottlieb,
        whitehead_pairs=X.whitehead_pairs,
        pi1_action_trivial=action_trivial,
        raw=None,
        warnings=X.warnings)


# ---------------------------------------------------------------------------
# Built-in catalog and sphere templates


def sphere_space(n: int) -> SpaceModel:
    """Truncated model of the n-sphere, built from the classical facts.

    Truncation stops at n itself; even spheres carry trivial evaluation
    subgroups (nonzero Euler characteristic), odd H-space dimensions
    (1, 3, 7) carry full ones, and the remaining odd dimensions carry
    index two (the Whitehead square has order two).
    """
    if n < 1:
        raise InvalidInputError("sphere dimension must be at least 1")
    if n == 1:
        doc = {
            "kind": "space", "name": "S1", "truncation": 1, "aspherical": True,
            "pi1": {"rank": 1, "torsion": []}, "pi": {},
            "gottlieb": {"1": "full"}, "whitehead": "trivial",
            "pi1_action": "trivial",
        }
        return _space_from_doc(doc)
    pi = {str(i): {"rank": 0, "torsion": []} for i in range(2, n)}
    pi[str(n)] = {"rank": 1, "torsion": []}
    if n % 2 == 0:
        top: object = "trivial"
    elif n in (3, 7):
        top = "full"
    else:
        top = {"generators": [[2]]}
    doc = {
        "kind": "space", "name": f"S{n}", "truncation": n, "aspherical": False,
        "pi1": {"rank": 0, "torsion": []}, "pi": pi,
        "gottlieb": {str(n): top}, "whitehead": "trivial",
        "pi1_action": "trivial",
    }
    return _space_from_doc(doc)


# The largest degree a request takes, and so the largest sphere template:
# a template's truncation is its dimension.  The largest integer printed
# at degree N has about 0.3 N digits, and CPython refuses to render an int
# of more than 4,300 digits (sys.get_int_max_str_digits()); at this cap it
# has about 3,000.
DEGREE_CAP = 10_000


class Catalog:
    """The models of one catalog, each decoded and built when first asked
    for.

    A space is named by its "name", a transformation by its file stem.
    get() reads only the files that can hold the name asked for: the
    transformation <name>.json, or a space in <name>.json or in
    <name lowercased>.json, the shipped layout.  When neither holds it,
    get() falls back to the full index, which decodes every file and runs
    the checks that span files: a document that is not an object, whose
    kind is neither "space" nor "transformation", or whose model name an
    earlier file already took, is a ModelError whose path starts with its
    file name.  get() builds (parses and validates) one model, and the
    space a transformation names, and keeps them; iterating builds the
    full index and then every model.
    """

    def __init__(self, files: Iterable[Tuple[str, Optional[bytes]]],
                 root: str = ""):
        """files: (file name, contents) pairs; contents None is read from
        root/<file name> when first needed."""
        self._files: Dict[str, Optional[bytes]] = dict(files)
        self._root = root
        self._docs: Dict[str, dict] = {}
        # The full index, by model name; None until it is built.
        self._spaces: Optional[Dict[str, dict]] = None
        self._transformations: Dict[str, dict] = {}
        self._built: Dict[str, Model] = {}

    @classmethod
    def builtin(cls) -> "Catalog":
        """The shipped models, each read and built on first request."""
        root = os.path.join(os.path.dirname(__file__), "catalog")
        return cls(((fname, None) for fname in os.listdir(root)
                    if fname.endswith(".json")), root)

    def _decode(self, fname: str) -> dict:
        doc = self._docs.get(fname)
        if doc is None:
            data = self._files[fname]
            if data is None:
                with open(os.path.join(self._root, fname), "rb") as fh:
                    data = fh.read()
            doc = self._docs[fname] = _parse_document(data, fname)
        return doc

    def _index(self) -> None:
        """Decode every file and run the checks that span files, once."""
        if self._spaces is not None:
            return
        docs = [(fname, self._decode(fname)) for fname in sorted(self._files)]
        spaces: Dict[str, dict] = {}
        for fname, doc in docs:
            if doc["kind"] == "space":
                name = doc.get("name")
                if not isinstance(name, str):
                    _space_from_doc(doc)  # fails at the document's own path
                if name in spaces:
                    _fail(f"{fname}.name",
                          f"an earlier file already has a space named {name!r}")
                spaces[name] = doc
        transformations: Dict[str, dict] = {}
        for fname, doc in docs:
            if doc["kind"] == "transformation":
                stem = fname[:-len(".json")]
                if stem in spaces:
                    _fail(fname, f"a space is already named {stem!r}")
                transformations[stem] = doc
        self._spaces, self._transformations = spaces, transformations

    def _document(self, name: str) -> Optional[dict]:
        """The document of the model named name, or None.  Before the full
        index, the files that can hold name are probed first; a file
        that does not decode is left for the index to report in order."""
        if self._spaces is None:
            for fname in (f"{name}.json", f"{name.lower()}.json"):
                if fname not in self._files:
                    continue
                try:
                    doc = self._decode(fname)
                except ModelError:
                    break
                if doc["kind"] == "space" and doc.get("name") == name:
                    return doc
                if doc["kind"] == "transformation" and fname == f"{name}.json":
                    return doc
            self._index()
        return self._spaces.get(name) or self._transformations.get(name)

    def get(self, name: str) -> Optional[Model]:
        """The model named name, or None when the catalog has none."""
        model = self._built.get(name)
        if model is None:
            doc = self._document(name)
            if doc is None:
                return None
            if doc["kind"] == "space":
                model = _space_from_doc(doc)
            else:
                model = _transformation_from_doc(doc, name, self._space)
            self._built[name] = model
        return model

    def _space(self, name: str) -> SpaceModel:
        """The resolver of a transformation's space reference."""
        doc = self._document(name)
        if doc is None or doc["kind"] != "space":
            raise NotFoundError(f"no space named {name!r}")
        return self.get(name)

    def __iter__(self) -> Iterator[Model]:
        """Every model, spaces first, each alphabetical by name; the first
        iteration decodes every file and builds every model."""
        self._index()
        return iter([self.get(name)
                     for names in (self._spaces, self._transformations)
                     for name in sorted(names)])


def builtin_catalog() -> Catalog:
    """Every shipped model, built now: the full load."""
    catalog = Catalog.builtin()
    list(catalog)  # builds and validates every model
    return catalog


def catalog_from_dir(path: str) -> Catalog:
    """Every *.json in a directory as one self-contained catalog, every
    model built now, so that one broken file fails the whole load.  A
    directory or file that cannot be read is a ModelError at its path."""
    files, where = [], path
    try:
        for fname in os.listdir(path):
            if fname.endswith(".json"):
                where = fname
                with open(os.path.join(path, fname), "rb") as fh:
                    files.append((fname, fh.read()))
    except OSError as exc:
        raise ModelError(where, f"cannot read: {exc.strerror}") from None
    catalog = Catalog(files)
    list(catalog)  # builds and validates every model
    return catalog


def find_model(name: str, catalog: Catalog) -> Model:
    """Model lookup by name, with S<k> falling back to the sphere template
    up to S<DEGREE_CAP>; a larger k is refused before anything is built."""
    model = catalog.get(name)
    if model is not None:
        return model
    digits = name[1:]
    if name[:1] == "S" and _is_positive_decimal(digits):
        if len(digits) > len(str(DEGREE_CAP)) or int(digits) > DEGREE_CAP:
            raise NotFoundError(f"no model named {name!r}: sphere templates "
                                f"stop at S{DEGREE_CAP}")
        return sphere_space(int(digits))
    raise NotFoundError(f"no model named {name!r}")
