"""Set-up probe: a fresh interpreter times ``import thg.cli`` plus one
``builtin_catalog()`` and prints ``{"setup_s": ...}``.

Run as ``python3 bench/setup_probe.py ROOT``.  Only modules the
interpreter has already loaded are imported before the clock starts.
"""

import os
import sys
import time


def import_thg(root: str):
    """Import thg.cli from ROOT/src, and fail unless it came from there."""
    src = os.path.abspath(os.path.join(root, "src"))
    sys.path.insert(0, src)
    import thg.cli
    where = os.path.dirname(os.path.abspath(thg.cli.__file__))
    if where != os.path.join(src, "thg"):
        raise SystemExit(f"thg was imported from {where}, not from {src}")
    return thg.cli


if __name__ == "__main__":
    start = time.perf_counter()
    import_thg(sys.argv[1])
    import thg.spacecat
    thg.spacecat.builtin_catalog()
    elapsed = time.perf_counter() - start
    import json
    print(json.dumps({"setup_s": elapsed}), flush=True)
