"""Catalog loading, validation, orbit spaces, and the shared group surface."""

import json
import pathlib
import sys

import pytest

from thg.abelian import TRIVIAL, FgAbelian, INFINITY
from thg.errors import (InsufficientDataError, InvalidInputError, ModelError,
                        NotFoundError, UnsupportedError)
from thg.fingroup import COORD_CAP, CayleyGroup, from_catalog, is_isomorphic
from thg.spacecat import (FULL, CENTER, TRIVIAL_SUBGROUP, Catalog, SpaceModel,
                          SubgroupData, TransformationModel, builtin_catalog,
                          catalog_from_dir, find_model, load_model,
                          orbit_space, serialize, sphere_space,
                          subgroup_index_in, subgroup_structure_in)
from thg.tower import (VirtAbelian, center_structure, direct_sum_group,
                       make_virtabelian)

CATALOG_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "thg" / "catalog"

MODELS = builtin_catalog()
BY_NAME = {m.name: m for m in MODELS}


def test_builtin_catalog_is_complete_and_ordered():
    names = [m.name for m in MODELS]
    spaces = [n for n, m in zip(names, MODELS) if isinstance(m, SpaceModel)]
    actions = [n for n, m in zip(names, MODELS) if isinstance(m, TransformationModel)]
    assert names == spaces + actions  # spaces first
    assert spaces == sorted(spaces)
    assert actions == sorted(actions)
    assert len(names) == 17


def test_serialization_roundtrips_every_catalog_file():
    for path in sorted(CATALOG_DIR.glob("*.json")):
        original = path.read_text()
        model = next((m for m in MODELS
                      if serialize(m) == original), None)
        assert model is not None, f"{path.name} does not round-trip"


def test_catalog_from_dir_matches_builtin():
    loaded = catalog_from_dir(str(CATALOG_DIR))
    assert [m.name for m in loaded] == [m.name for m in MODELS]


def test_models_built_by_need_match_the_full_load():
    for model in MODELS:
        alone = Catalog.builtin().get(model.name)
        assert type(alone) is type(model)
        assert serialize(alone) == serialize(model)
        space = getattr(alone, "space", alone)
        assert space.warnings == getattr(model, "space", model).warnings
    assert Catalog.builtin().get("S9") is None  # no template by need


def test_the_shipped_layout_is_the_one_get_probes():
    # Catalog.get reads a space from <name lowercased>.json and a
    # transformation from <name>.json before it decodes anything else.
    for model in MODELS:
        stem = model.name.lower() if isinstance(model, SpaceModel) else model.name
        assert (CATALOG_DIR / f"{stem}.json").read_text() == serialize(model)
    assert len(list(CATALOG_DIR.glob("*.json"))) == len(BY_NAME)


def test_a_catalog_builds_a_broken_file_only_when_asked():
    files = [(p.name, p.read_bytes()) for p in CATALOG_DIR.glob("*.json")]
    doc = json.loads((CATALOG_DIR / "s5.json").read_text())
    doc["pi"]["5"]["torsion"] = [-3]
    files = [(name, json.dumps(doc).encode() if name == "s5.json" else data)
             for name, data in files]
    catalog = Catalog(files)
    assert catalog.get("s3-q8").space is catalog.get("S3")
    with pytest.raises(ModelError, match="^pi.5.torsion: "):
        catalog.get("s5-z2")
    with pytest.raises(ModelError, match="^pi.5.torsion: "):
        list(catalog)


def test_find_model_and_sphere_templates():
    assert find_model("S3", MODELS).truncation == 6
    s9 = find_model("S9", MODELS)
    assert s9.truncation == 9
    assert s9.pi_at(9) == FgAbelian(1)
    # S9 is no H-space: its Whitehead square has order two, so the
    # top evaluation subgroup is 2Z, index 2.
    assert subgroup_index_in(s9.pi_at(9), s9.gottlieb[9]) == 2
    s7 = find_model("S7", MODELS)
    assert subgroup_index_in(s7.pi_at(7), s7.gottlieb[7]) == 1  # H-space
    s4 = find_model("S4", MODELS)
    assert subgroup_index_in(s4.pi_at(4), s4.gottlieb[4]) == INFINITY
    with pytest.raises(NotFoundError):
        find_model("K3", MODELS)
    with pytest.raises(NotFoundError):
        find_model("s3", MODELS)  # space names are case-sensitive


def test_the_circle_template_is_the_shipped_circle():
    # The built-in catalog ships S1, so only a catalog without it reaches
    # the template: it must agree on every field the battery reads.
    shipped, template = BY_NAME["S1"], sphere_space(1)
    for field in ("name", "truncation", "aspherical", "pi1", "pi", "gottlieb_table",
                  "whitehead_pairs", "pi1_action_trivial"):
        assert getattr(template, field) == getattr(shipped, field), field


def test_pi_at_beyond_truncation():
    s3 = BY_NAME["S3"]
    with pytest.raises(InsufficientDataError,
                       match="^S3 carries data up to degree 6; degree 7 "
                             "was requested$"):
        s3.pi_at(7)
    t3 = BY_NAME["T3"]
    assert t3.pi_at(12) == FgAbelian(0, ())  # aspherical: trivial forever
    assert t3.gottlieb_entry(12) == (1, TRIVIAL)


def test_gottlieb_full_is_forced_on_trivial_groups():
    s3 = BY_NAME["S3"]
    assert s3.pi_at(2) == FgAbelian(0, ())
    assert s3.gottlieb_entry(2) == (1, TRIVIAL)


def test_orbit_space_of_spherical_space_forms():
    orbit = orbit_space(BY_NAME["s3-z4"])
    assert isinstance(orbit.pi1, CayleyGroup)
    assert orbit.pi1.order == 4
    assert orbit.pi_at(3) == FgAbelian(1)
    assert orbit.pi_at(6) == FgAbelian(0, (12,))
    assert orbit.truncation == 6
    assert not orbit.aspherical

    orbit = orbit_space(BY_NAME["s3-q8"])
    assert is_isomorphic(orbit.pi1, from_catalog("Q8"))


def test_orbit_space_of_torus_quotient():
    orbit = orbit_space(BY_NAME["t3-z2"])
    assert orbit.aspherical
    assert isinstance(orbit.pi1, VirtAbelian)
    assert orbit.pi1.order == INFINITY
    assert center_structure(orbit.pi1) == FgAbelian(1)
    # Aspherical: no higher homotopy for the fundamental group to move.
    assert orbit.pi1_action_trivial is True

    plain = orbit_space(BY_NAME["t3-trivial"])
    assert center_structure(plain.pi1) == FgAbelian(3)


def test_orbit_space_of_projective_quotient():
    orbit = orbit_space(BY_NAME["rp3-z2z2"])
    assert isinstance(orbit.pi1, CayleyGroup)
    assert orbit.pi1.order == 8
    assert is_isomorphic(orbit.pi1, from_catalog("Q8"))


def test_orbit_space_with_trivial_group_is_the_space():
    tg = BY_NAME["t3-trivial"]
    orbit = orbit_space(tg)
    assert orbit.aspherical
    assert orbit.pi1.order == INFINITY


def test_transformation_accessors():
    tg = BY_NAME["s2-z2"]
    assert tg.free and tg.sphere_dimension == 2
    assert tg.space.name == "S2"
    auts = tg.action_by_degree[2]
    t = tg.group.index_of("t")
    assert auts[t].free_matrix.entries == ((-1,),)
    assert tg.action_trivial_at(3)


def test_group_helpers_across_representations():
    # (group, order, rank, trivial, abelian, label), one row per form:
    # invariant factors, Cayley tables and extensions, finite and infinite.
    cases = [
        (TRIVIAL, 1, 0, True, True, "1"),
        (FgAbelian(2, (3,)), INFINITY, 2, False, True, "Z^2 x Z/3"),
        (from_catalog("Z(1)"), 1, 0, True, True, "finite group of order 1"),
        (from_catalog("Q8"), 8, 0, False, False, "finite group of order 8"),
        (make_virtabelian(from_catalog("Z(2)"), FgAbelian(0, (2,))),
         4, 0, False, True, "finite group of order 4"),
        (orbit_space(BY_NAME["t3-z2"]).pi1, INFINITY, 3, False, False,
         "extension of Z^3 by a base of order 2"),
    ]
    for grp, order, rank, trivial, abelian, label in cases:
        assert grp.order == order, label
        assert grp.rank == rank, label
        assert grp.is_trivial() is trivial, label
        assert grp.is_abelian() is abelian, label
        assert grp.describe() == label


def test_orbit_space_guards_keep_their_error_types():
    resolver = {m.name: m for m in MODELS
                if isinstance(m, SpaceModel)}.__getitem__
    # An abelian pi_1 without a cocycle table: the extension is unknown.
    doc = {"kind": "transformation", "space": "T3",
           "group": {"catalog": "Z(2)"}, "free": True, "action": {}}
    tg = load_model(json.dumps(doc), name="t3-z2-bare", resolver=resolver)
    with pytest.raises(InvalidInputError):
        orbit_space(tg)
    # A tabulated, non-abelian pi_1: no extension is built over it.
    doc = dict(doc, space="S3modQ8")
    tg = load_model(json.dumps(doc), name="s3modq8-z2", resolver=resolver)
    with pytest.raises(UnsupportedError):
        orbit_space(tg)


def test_subgroup_structure_in_resolves_each_ambient_kind():
    amb = FgAbelian(1)
    assert subgroup_structure_in(amb, FULL) == amb
    assert subgroup_structure_in(amb, TRIVIAL_SUBGROUP) == FgAbelian(0, ())

    q8 = from_catalog("Q8")
    assert subgroup_structure_in(q8, CENTER) == FgAbelian(0, (2,))
    assert subgroup_structure_in(q8, FULL) is None  # not abelian
    names = SubgroupData("elements", elements=("1", "-1"))
    assert subgroup_structure_in(q8, names) == FgAbelian(0, (2,))

    virt = orbit_space(BY_NAME["t3-z2"]).pi1
    assert subgroup_structure_in(virt, CENTER) == FgAbelian(1)
    assert subgroup_structure_in(virt, FULL) is None  # not abelian
    split = direct_sum_group(from_catalog("Z2"), FgAbelian(1))
    assert subgroup_structure_in(split, FULL) == FgAbelian(1, (2,))


def _space_doc(**overrides):
    doc = {
        "kind": "space",
        "name": "X",
        "aspherical": False,
        "truncation": 3,
        "pi1": {"rank": 0, "torsion": [2]},
        "pi": {"2": {"rank": 1, "torsion": []},
               "3": {"rank": 0, "torsion": [2]}},
        "gottlieb": {"1": "full"},
        "whitehead": "trivial",
        "pi1_action": "trivial",
    }
    doc.update(overrides)
    return doc


def _load(doc, name=None):
    return load_model(json.dumps(doc), name=name)


def test_space_document_loads():
    x = _load(_space_doc())
    assert x.name == "X" and x.truncation == 3
    assert x.pi_at(2) == FgAbelian(1)


def test_a_degree_one_subgroup_past_the_center_warns_in_either_spelling():
    # Gottlieb: G_1 lies in the center, and Q8 is not its own center.
    past = ("gottlieb.1: degree-1 evaluation subgroup exceeds the center of "
            "the fundamental group",)
    doc = _space_doc(pi1={"catalog": "Q8"})
    q8_elements = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    for spelling in ("full", {"elements": q8_elements}):
        assert _load(dict(doc, gottlieb={"1": spelling})).warnings == past
    assert _load(dict(doc, gottlieb={"1": {"elements": ["1", "-1"]}})).warnings == ()
    # On an abelian fundamental group "full" is the center.
    assert _load(_space_doc()).warnings == ()


def test_a_repeated_element_name_is_refused_by_name():
    doc = json.loads((CATALOG_DIR / "s3modq8.json").read_text())
    doc["gottlieb"]["1"] = {"elements": ["1", "-1", "-1"]}
    with pytest.raises(ModelError, match="^gottlieb.1: element '-1' is listed twice$"):
        _load(doc)
    # The list without the repeat is the center, and loads.
    doc["gottlieb"]["1"] = {"elements": ["-1", "1"]}
    assert _load(doc).name == "S3modQ8"
    doc["gottlieb"]["1"] = {"elements": ["1", "i"]}
    with pytest.raises(ModelError, match="^gottlieb.1: element list is not closed under "
                                         "multiplication$"):
        _load(doc)


def test_malformed_documents_are_rejected_with_paths():
    with pytest.raises(ModelError):
        load_model("not json at all")
    with pytest.raises(ModelError) as exc:
        _load(_space_doc(extra_field=1))
    assert "extra_field" in str(exc.value)
    with pytest.raises(ModelError):
        _load(_space_doc(truncation=-1))
    with pytest.raises(ModelError) as exc:
        _load(_space_doc(pi={"2": {"rank": -1, "torsion": []}}))
    assert "pi" in str(exc.value)
    with pytest.raises(ModelError):
        _load(_space_doc(pi={"9": {"rank": 1, "torsion": []}}))  # past truncation
    with pytest.raises(ModelError):
        _load(_space_doc(gottlieb={"2": {"generators": [[1, 1]]}}))  # wrong width
    with pytest.raises(ModelError) as exc:
        _load(_space_doc(whitehead={"2,3": [[[1]]]}))  # lands past truncation
    assert "whitehead" in str(exc.value)
    with pytest.raises(ModelError):
        _load({"kind": "widget"})


INLINE_EXTENSION = {"base": {"catalog": "Z(2)"},
                    "layer": {"rank": 1, "torsion": []},
                    "action": {"t": [[-1]]}, "cocycle": {}}


def test_inline_extension_pi1_loads():
    # Z extended by Z/2 acting by -1: the infinite dihedral group.
    pi1 = _load(_space_doc(pi1=INLINE_EXTENSION)).pi1
    assert isinstance(pi1, VirtAbelian)
    assert (pi1.order, pi1.rank) == (INFINITY, 1)
    assert pi1.describe() == "extension of Z by a base of order 2"


def test_a_full_degree_one_subgroup_of_an_inline_extension():
    # gottlieb_table reads G_1 = pi_1 off the extension: Z x Z/2 when the
    # base acts trivially, no abelian presentation when it acts by -1.
    split = dict(INLINE_EXTENSION, action={})
    assert _load(_space_doc(pi1=split)).gottlieb_table[1] == (1, FgAbelian(1, (2,)))
    assert _load(_space_doc(pi1=INLINE_EXTENSION)).gottlieb_table[1] == (1, None)


@pytest.mark.parametrize("field, value, path, message", [
    ("base", {"rank": 1, "torsion": []}, "pi1.base",
     "extension base must be a finite group"),
    ("action", {"x": [[1]]}, "pi1.action.x", "not an element of the base group"),
    ("action", {"t": [[2]]}, "pi1.action.t", "free block must be unimodular"),
    ("cocycle", {"t,t": [1]}, "pi1",
     "cocycle condition fails; product not associative"),
])
def test_inline_extension_pi1_failures_name_path_and_message(field, value,
                                                             path, message):
    with pytest.raises(ModelError) as exc:
        _load(_space_doc(pi1=dict(INLINE_EXTENSION, **{field: value})))
    assert (exc.value.path, exc.value.message) == (path, message)


def test_whitehead_table_width_checked():
    doc = _space_doc(truncation=5,
                     pi={"2": {"rank": 1, "torsion": []},
                         "3": {"rank": 0, "torsion": [2]},
                         "4": {"rank": 0, "torsion": []},
                         "5": {"rank": 0, "torsion": []}},
                     whitehead={"2,2": [[[1, 1]]]})
    with pytest.raises(ModelError):
        _load(doc)


def test_transformation_document_validation():
    space = _load(_space_doc())

    def resolver(name):
        if name == "X":
            return space
        raise NotFoundError(f"no space named {name!r}")

    base = {
        "kind": "transformation",
        "space": "X",
        "group": {"catalog": "Z(2)"},
        "free": True,
        "action": {},
    }
    tg = load_model(json.dumps(base), name="x-z2", resolver=resolver)
    assert tg.name == "x-z2" and tg.group.order == 2

    bad = dict(base, action={"nope": {"2": [[1]]}})
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(bad), name="x-z2", resolver=resolver)
    assert "nope" in str(exc.value)

    bad = dict(base, action={"t": {"2": [[2]]}})  # not an automorphism
    with pytest.raises(ModelError):
        load_model(json.dumps(bad), name="x-z2", resolver=resolver)

    bad = dict(base, g0={"elements": ["t", "t"]})
    with pytest.raises(ModelError):
        load_model(json.dumps(bad), name="x-z2", resolver=resolver)


def test_actions_that_are_not_homomorphisms_are_rejected():
    # In the Klein group a * b = ab, so a flipping pi_2 while b and ab fix
    # it is no homomorphism; the identity may not flip it either.
    resolver = {"S2": BY_NAME["S2"]}.__getitem__
    doc = {"kind": "transformation", "space": "S2",
           "group": {"catalog": "Z2xZ2"}, "free": False,
           "action": {"a": {"2": [[-1]]}}}
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(doc), name="s2-klein", resolver=resolver)
    assert exc.value.path == "action"
    assert exc.value.message == "degree 2: action is not a homomorphism"
    doc["action"] = {"e": {"2": [[-1]]}, "a": {"2": [[-1]]}}
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(doc), name="s2-klein", resolver=resolver)
    assert exc.value.path == "action"
    assert exc.value.message.startswith("degree 2: identity ")

    space = _space_doc(pi1={"catalog": "Z2xZ2"},
                       pi1_action={"a": {"2": [[-1]]}})
    with pytest.raises(ModelError) as exc:
        _load(space)
    assert exc.value.path == "pi1_action"
    assert exc.value.message == "degree 2: action is not a homomorphism"
    # a and b both flipping, so that ab = a * b fixes it, is one.
    space["pi1_action"] = {"a": {"2": [[-1]]}, "b": {"2": [[-1]]}}
    assert _load(space).pi1_action_trivial is False


def test_serialize_rejects_derived_models():
    orbit = orbit_space(BY_NAME["s3-z4"])
    with pytest.raises(UnsupportedError):
        serialize(orbit)


def test_orbit_names_are_descriptive():
    assert orbit_space(BY_NAME["s3-z4"]).name == "S3/s3-z4"
    assert orbit_space(BY_NAME["t3-z2"]).name == "T3/t3-z2"


# Every way an action table can fail, for a transformation's "action"
# (Z2xZ2 acting on a space whose pi_1 is Q8) and for a space's
# "pi1_action" (pi_1 = Z2xZ2), with the exact path and message.
_ACTION_TABLE_FAILURES = [
    ("action", {"nope": {"2": [[1]]}},
     "action.nope", "not an element of the acting group"),
    ("action", {"a": [[-1]]}, "action.a", "expected an object, got list"),
    ("action", {"a": {"02": [[-1]]}},
     "action.a.02", "degree keys must be positive integers"),
    ("action", {"a": {"4": [[-1]]}},
     "action.a.4", "degree must lie between 1 and 3"),
    ("action", {"a": {"1": [[1]]}}, "action.a.1",
     "matrices need an abelian homotopy group in this degree"),
    ("action", {"a": {"2": [[1, 0], [0, 1]]}},
     "action.a.2", "expected a 1 x 1 matrix"),
    ("action", {"a": {"2": [[2]]}},
     "action.a.2", "free block must be unimodular"),
    ("action", {"a": {"2": [[-1]]}},
     "action", "degree 2: action is not a homomorphism"),
    ("action", {"e": {"2": [[-1]]}, "a": {"2": [[-1]]}},
     "action", "degree 2: identity base element must act trivially"),
    ("pi1_action", {"nope": {"2": [[1]]}},
     "pi1_action.nope", "not an element of the fundamental group"),
    ("pi1_action", {"a": [[-1]]},
     "pi1_action.a", "expected an object, got list"),
    ("pi1_action", {"a": {"02": [[-1]]}},
     "pi1_action.a.02", "degree keys must be positive integers"),
    ("pi1_action", {"a": {"1": [[-1]]}},
     "pi1_action.a.1", "degree must lie between 2 and 3"),
    ("pi1_action", {"a": {"2": [[1, 0], [0, 1]]}},
     "pi1_action.a.2", "expected a 1 x 1 matrix"),
    ("pi1_action", {"a": {"2": [[2]]}},
     "pi1_action.a.2", "free block must be unimodular"),
    ("pi1_action", {"a": {"2": [[-1]]}},
     "pi1_action", "degree 2: action is not a homomorphism"),
    ("pi1_action", {"e": {"2": [[-1]]}, "a": {"2": [[-1]]}},
     "pi1_action", "degree 2: identity base element must act trivially"),
]


@pytest.mark.parametrize("field, table, path, message", _ACTION_TABLE_FAILURES)
def test_action_table_failures_name_path_and_message(field, table, path, message):
    if field == "action":
        space = _load(_space_doc(pi1={"catalog": "Q8"}))
        doc = {"kind": "transformation", "space": "X",
               "group": {"catalog": "Z2xZ2"}, "free": False, "action": table}
        with pytest.raises(ModelError) as exc:
            load_model(json.dumps(doc), name="x-klein",
                       resolver={"X": space}.__getitem__)
    else:
        with pytest.raises(ModelError) as exc:
            _load(_space_doc(pi1={"catalog": "Z2xZ2"}, pi1_action=table))
    assert (exc.value.path, exc.value.message) == (path, message)


def test_torsion_actions_load_in_normal_form_or_fail_at_their_path():
    # pi_2 = Z + Z/2 and pi_3 = Z/4 under Z/2: -1 on the Z/2 coordinate is
    # +1 there and is stored so; on Z/4 it is a map of its own.
    space = _load(_space_doc(pi={"2": {"rank": 1, "torsion": [2]},
                                 "3": {"rank": 0, "torsion": [4]}}))

    def load(table):
        doc = {"kind": "transformation", "space": "X",
               "group": {"catalog": "Z(2)"}, "free": False, "action": {"t": table}}
        return load_model(json.dumps(doc), name="x-z2",
                          resolver={"X": space}.__getitem__)

    tg = load({"2": [[-1, 0], [0, -1]], "3": [[-1]]})
    t = tg.group.index_of("t")
    flip, quarter = tg.action_by_degree[2][t], tg.action_by_degree[3][t]
    assert flip.free_matrix.entries == ((-1,),) and flip.torsion_signs == (1,)
    assert quarter.torsion_signs == (-1,) and not quarter.is_identity()
    assert load({"2": [[-1, 0], [0, 1]], "3": [[-1]]}).action_by_degree[2][t] == flip
    assert load({"2": "identity", "3": [[-1]]}).action_by_degree[2][t].is_identity()
    for table, path, message in [
            ({"2": [[-1, 0], [1, -1]]}, "action.t.2",
             "torsion rows may only touch their own coordinate"),
            ({"2": [[-1, 1], [0, 1]]}, "action.t.2",
             "free rows may not touch torsion coordinates"),
            ({"3": [[3]]}, "action.t.3", "torsion multipliers must be +1 or -1")]:
        with pytest.raises(ModelError) as exc:
            load(table)
        assert (exc.value.path, exc.value.message) == (path, message)


def test_oversized_catalog_group_is_a_model_error_at_its_path():
    with pytest.raises(ModelError) as exc:
        _load(_space_doc(pi1={"catalog": "Z(3000)"}))
    assert exc.value.path == "pi1.catalog"
    space = _load(_space_doc())
    doc = {"kind": "transformation", "space": "X",
           "group": {"catalog": "Z(3000)"}, "free": False, "action": {}}
    with pytest.raises(ModelError) as exc:
        load_model(json.dumps(doc), name="x-big",
                   resolver={"X": space}.__getitem__)
    assert exc.value.path == "group.catalog"


def test_a_rank_past_the_coordinate_cap_is_refused_at_its_path():
    # Refused before any matrix is built; never build a larger rank.
    past = {"rank": COORD_CAP + 1, "torsion": []}
    three = {"rank": 0, "torsion": [2]}
    for doc, path in [
            (_space_doc(pi1=past), "pi1.rank"),
            (_space_doc(pi={"2": past, "3": three}), "pi.2.rank"),
            (_space_doc(pi1=dict(INLINE_EXTENSION, layer=past)),
             "pi1.layer.rank"),
            (_space_doc(pi1={"rank": COORD_CAP, "torsion": [2]}),
             "pi1.torsion")]:
        with pytest.raises(ModelError) as exc:
            _load(doc)
        assert exc.value.path == path
    at_cap = _load(_space_doc(pi={"2": {"rank": COORD_CAP, "torsion": []},
                                  "3": three}))
    assert at_cap.pi_at(2) == FgAbelian(COORD_CAP)


# Degree keys are what [1-9][0-9]* matches, and pairing keys two of them
# around one comma.  "²".isdigit() is true, but int("²") raises.
_TRIVIAL_GROUP = {"rank": 0, "torsion": []}
_DEGREE_KEY = "degree keys must be positive integers"
_PAIRING_KEY = 'pairing keys look like "2,3"'


@pytest.mark.parametrize("field, key, error", [
    ("gottlieb", "1", None), ("gottlieb", "12", None),
    *(("gottlieb", key, _DEGREE_KEY) for key in
      ("0", "01", "+1", " 1", "1 ", "", "1_0", "\u0661", "\u00b2")),
    ("whitehead", "2,3", None),
    *(("whitehead", key, _PAIRING_KEY) for key in
      ("2,03", "2, 3", "2,3,4", "\u0662,3")),
])
def test_degree_and_pairing_key_syntax(field, key, error):
    doc = {"kind": "space", "name": "X", "truncation": 12,
           "aspherical": False, "pi1": _TRIVIAL_GROUP,
           "pi": {str(i): _TRIVIAL_GROUP for i in range(2, 13)},
           field: {key: "full" if field == "gottlieb" else []}}
    if error is None:
        assert load_model(json.dumps(doc)).name == "X"
        return
    with pytest.raises(ModelError) as caught:
        load_model(json.dumps(doc))
    assert (caught.value.path, caught.value.message) == (f"{field}.{key}", error)


_HUGE = "1" + "0" * 4999  # past the 4,300 digits that int() reads from text


def test_integers_past_the_digit_limit_are_model_errors():
    # A degree key with more digits than the truncation is refused by its
    # length, before int() could refuse it.
    for field, key, value, message in [
            ("gottlieb", _HUGE, "full", "degree must lie between 1 and 3"),
            ("pi", _HUGE, _TRIVIAL_GROUP, "degree must lie between 2 and 3"),
            ("whitehead", f"{_HUGE},2", [], "pairing lands past the truncation degree"),
            ("whitehead", f"2,{_HUGE}", [], "pairing lands past the truncation degree"),
            ("whitehead", f"1,{_HUGE}", [], "pairings below degree 2 are not supported")]:
        doc = _space_doc(pi={"2": _TRIVIAL_GROUP, "3": _TRIVIAL_GROUP})
        doc[field] = dict(doc[field], **{key: value}) if field == "pi" else {key: value}
        with pytest.raises(ModelError) as caught:
            _load(doc)
        assert (caught.value.path, caught.value.message) == (f"{field}.{key}", message)
    # A document integer of that length is refused by the JSON reader,
    # where the interpreter caps integer conversion (3.10.7 and later).
    if not hasattr(sys, "get_int_max_str_digits"):
        return
    text = json.dumps(_space_doc(truncation=3)).replace('"truncation": 3',
                                                        f'"truncation": {_HUGE}')
    with pytest.raises(ModelError) as caught:
        load_model(text)
    assert caught.value.path == ""
    assert caught.value.message.startswith("unreadable number: ")
    with pytest.raises(ModelError) as caught:
        list(Catalog([("x.json", text.encode())]))
    assert caught.value.path == "x.json"


def test_gottlieb_degrees_of_an_aspherical_space_read_the_trivial_group():
    doc = {"kind": "space", "name": "X", "truncation": 3, "aspherical": True,
           "pi1": {"rank": 1, "torsion": []}, "pi": {}}
    x = _load(dict(doc, gottlieb={"3": "full", "2": "trivial"}))
    assert x.gottlieb_entry(2) == x.gottlieb_entry(3) == (1, TRIVIAL)
    with pytest.raises(ModelError) as caught:
        _load(dict(doc, gottlieb={"2": {"generators": [[1]]}}))
    assert caught.value.path.startswith("gottlieb.2.")
