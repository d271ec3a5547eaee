"""Golden corpus: exit code and stdout digest of every verb on every model.

Each invocation in ``INVOCATIONS`` runs the CLI in-process on the
shipped catalog; its exit code and the sha256 of its stdout must match
``golden_digests.json``.  Refactors must leave every entry unchanged.
A change that alters output on purpose re-records the file with

    PYTHONPATH=src python tests/test_golden.py --record

and says in its change note which entries moved and why.
"""

import hashlib
import io
import json
import pathlib
import sys

from thg.cli import run
from thg.spacecat import builtin_catalog

DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")
FORMATS = ("json", "text")
# Degree options per verb; verbs absent here take none.
DEGREES = {
    "tau": (("--max-n", "4"), ("--n", "6")),
    "sigma": (("--max-n", "4"), ("--n", "6")),
    "gtau": (("--max-n", "4"), ("--n", "6")),
    "gsigma": (("--max-n", "4"), ("--n", "6")),
    "classify": (("--max-n", "4"), ("--max-n", "6")),
    "verify": (("--max-n", "6"),),
    "audit": (("--max-n", "6"),),
}
TARGETED = ("show", "tau", "sigma", "gtau", "gsigma", "g0", "classify",
            "verify", "audit")
WHOLE_CATALOG = (("list",), ("verify", "--all", "--max-n", "4"),
                 ("verify", "--all", "--max-n", "20"),
                 ("audit", "--all", "--max-n", "6"))


def invocations():
    names = [m.name for m in builtin_catalog()]
    for fmt in FORMATS:
        for argv in WHOLE_CATALOG:
            yield list(argv) + ["--format", fmt]
        for verb in TARGETED:
            for name in names:
                for opts in DEGREES.get(verb, ((),)):
                    yield [verb, name, *opts, "--format", fmt]


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def test_golden_corpus_is_unchanged():
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    current = {" ".join(argv): digest(argv) for argv in invocations()}
    assert sorted(current) == sorted(recorded)
    changed = [key for key in current if current[key] != recorded[key]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    table = {" ".join(argv): digest(argv) for argv in invocations()}
    lines = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"recorded {len(table)} invocations in {DIGESTS.name}")
