"""Deep tower renderings: exit code and stdout digest of requests far past
the golden corpus's degree 6.

Each summary here has hundreds of layers, or a sweep renders dozens of
summaries, as the deep-tower benchmark asks for them.  A faster renderer
must leave every digest as it is: a change to these bytes is a change in
output, and the change note that makes it says which entry moved and why.
"""

import hashlib
import io

import pytest

from thg.cli import EXIT_OK, run

PINNED = {
    "gtau T3 --n 650 --format json":
        "6334d90fda4ec4803dab7c3732c2bc8428280762517d32073774e0bfcb1554ee",
    "gtau T3 --n 650 --format text":
        "c5ac7792cb83234da73d2cc08415f1c0db8ca9c54ba387b9ac232549f132a5c7",
    "gtau S1 --n 550 --format json":
        "257b56d9af25c8f2af1e64e295f27f697358794b478f25586aa719dc33fc4280",
    "gtau S1 --n 550 --format text":
        "bb23b8f41d47c5d54b8f3d30eefd055f6350b86d609b5b04806f5211b7896367",
    "gsigma t3-z2 --n 600 --format json":
        "8801a4e81b775f506376e898463a553d94058a53f18820e76bf8d7271189ee5d",
    "gsigma t3-z2 --n 600 --format text":
        "901f6bf01559d36e50f89237e40da73b468c80d3a112a716df3aab50a0d7054a",
    "gsigma t3-trivial --max-n 58 --format json":
        "6e6d84cb27e958b30e5d5dd0a643b27ae11dae568db7549bc340305d5d68f4fa",
    "gsigma t3-trivial --max-n 58 --format text":
        "cb1821aec023d7ae53b08a1e444057ddc174fba43c40b574e87aa97621c10e70",
    "tau T3 --max-n 58 --format json":
        "9c3fbed992ec233179900206cf39120b39c5836699bc5e3ce610d7c05ea0ad20",
    "tau T3 --max-n 58 --format text":
        "eeea306ed5dd292170b3586982d0accaaf8cad5622056e5788e394e377f360e6",
    "sigma t3-z2 --n 400 --format json":
        "175e177a6178a49463f63f8925f57b13d31421eb1458f0e38bbed41eec946f40",
    "sigma t3-z2 --n 400 --format text":
        "4a93afc27713484c2166c649fd3383f4d452c903aa331563239cb47965f428b0",
    "tau S1 --n 600 --format json":
        "6c6e4f3269ed3a801137acf290bb01357d9cbd665c7189479a97b475d9d7d414",
    "tau S1 --n 600 --format text":
        "3a24bcf1106aeb87713b54b45b730862916253c092df23a4b9c4bf6c8634fce2",
    "sigma t3-z2 --max-n 58 --format json":
        "a04811af4b078bba0cbf4de425d4c57e4ae6be659d5ccc90e2660bf459b39209",
    "sigma t3-z2 --max-n 58 --format text":
        "32b31daf620b06bf58ee751822f4e9d7fdc32658d99d1c2c4addb1d4c4e7cee6",
}


@pytest.mark.parametrize("invocation", sorted(PINNED))
def test_deep_rendering_is_unchanged(invocation):
    out, err = io.StringIO(), io.StringIO()
    assert run(invocation.split(), out=out, err=err) == EXIT_OK
    assert err.getvalue() == ""
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == PINNED[invocation]
