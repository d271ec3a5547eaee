"""The fork server that runs every sample of the benchmark.

``server.py ROOT`` imports thg once and then reads one JSON
request per line on stdin.  Each request runs in its own forked child,
which starts from the freshly imported package with nothing computed,
so no state carries over between samples, and the interpreter's 0.15 to
0.2 s start-up is paid once instead of per sample.  The child times its
own work with ``time.perf_counter`` and sends one JSON result back; the
server kills it if it overruns its limit.  A request is either one CLI
invocation through ``thg.cli.run`` or a batch of library operations,
each under its own ``signal.setitimer`` alarm.

It asserts that thg was imported from ROOT/src, so a copy of thg
installed elsewhere is never measured by mistake.
"""

from __future__ import annotations

import io
import json
import os
import resource
import select
import signal
import sys
import time

from oracles import EXCEPTION, TIMEOUT, WRONG_OUTPUT
from setup_probe import import_thg


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Work done in the forked child


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in thg eats it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _run_cli(req: dict, tracer) -> dict:
    from thg import cli
    if tracer is not None:
        tracer.reset(req["id"])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    rc = cli.run(req["argv"], out=out, err=err)
    elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    res = {"rc": rc, "elapsed": elapsed, "stdout": stdout,
           "stderr": err.getvalue()[-500:], "maxrss_kb": _maxrss_kb()}
    if tracer is not None:
        res["trace"] = tracer.snapshot()
        res["trace"]["cli.out_bytes"] = len(stdout.encode("utf-8"))
        if req.get("spans"):
            res["spans"] = tracer.span_records()
    return res


def _run_batch(req: dict, tracer) -> dict:
    import ops
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    for op in req["ops"]:
        call, check = ops.prepare(op)
        if tracer is not None:
            tracer.reset(f"{req['id']}/{len(results)}")
        entry = {"slot": op["slot"]}
        try:
            signal.setitimer(signal.ITIMER_REAL, op["limit_s"])
            start = time.perf_counter()
            try:
                value = call()
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
            entry["elapsed"] = elapsed
            if not check(value):
                entry["kind"] = WRONG_OUTPUT
        except OpTimeout:
            entry.update(elapsed=op["limit_s"], kind=TIMEOUT)
        except Exception as exc:  # any error of thg's is a failed sample
            entry.update(elapsed=op["limit_s"], kind=EXCEPTION,
                         detail=repr(exc)[:300])
        if tracer is not None:
            entry["trace"] = tracer.snapshot()
            if req.get("spans"):
                entry["spans"] = tracer.span_records()
        results.append(entry)
    return {"ops": results, "maxrss_kb": _maxrss_kb()}


def _child(req: dict, wfd: int) -> None:
    tracer = None
    if req.get("trace"):
        from tracer import Tracer
        tracer = Tracer(keep_spans=bool(req.get("spans")))
        tracer.install()
    try:
        res = _run_batch(req, tracer) if req["kind"] == "batch" \
            else _run_cli(req, tracer)
    except BaseException as exc:  # report it; the parent decides
        res = {"error": EXCEPTION, "detail": repr(exc)[:300]}
    data = json.dumps(res).encode("utf-8")
    with os.fdopen(wfd, "wb") as fh:
        fh.write(data)


def _fork_one(req: dict) -> dict:
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            _child(req, wfd)
        except BaseException:
            code = 1
        os._exit(code)
    os.close(wfd)
    deadline = time.monotonic() + req["limit_s"] + 1.0
    chunks, timed_out = [], False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if ready:
                chunk = os.read(rfd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(rfd)
        os.waitpid(pid, 0)
    if timed_out:
        return {"error": TIMEOUT}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"error": EXCEPTION, "detail": "child died without a result"}


def serve(root: str) -> None:
    import_thg(root)
    import ops  # noqa: F401  (loaded before forking, like thg)
    import tracer  # noqa: F401
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        res = _fork_one(req)
        res["id"] = req["id"]
        sys.stdout.write(json.dumps(res) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
