"""Benchmark entry point: one workload, one seed, one timed run.

    python3 bench/run.py --workload catalog-battery --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; thg is imported from ./src of that
checkout and nowhere else.  The load is a closed loop with one client:
each sample is sent only after the previous one has completed, to one
child process at a time (see server.py).  Every sample's output is
checked, and a wrong output, a wrong exit code, an exception or a
timeout is a failed sample.

With ``--trace 0`` the last line of stdout carries the end-to-end
metrics.  With ``--trace 1`` passes alternate between untraced and
traced, a fixed probe set (``workloads.probe_ops``/``probe_cli``) runs
traced at the end, and the line carries the per-layer metrics of one
traced pass plus the probe set, and the tracing overhead.  Details
(provenance, failures with their kind, the tail percentile, probes) go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of the
first traced pass to ``...-spans.jsonl`` next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import oracles
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_MIN_PROBES = 5
SETUP_EVERY_S = 3.0        # one set-up probe per this much run time
TAIL_BEYOND = 10           # samples that must lie beyond the tail value
SERVER_START_LIMIT_S = 60.0


class ServerError(Exception):
    pass


class Server:
    """The fork server child, spoken to by one JSON line each way."""

    def __init__(self, root: str):
        self.root = root
        self.proc: Optional[subprocess.Popen] = None
        self.start()

    def start(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "server.py"), self.root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=self.root)
        if "ready" not in self._read_line(SERVER_START_LIMIT_S):
            raise ServerError("fork server did not start")

    def _read_line(self, limit_s: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], limit_s)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise ServerError("no answer from the fork server")
        return json.loads(line)

    def request(self, req: dict) -> dict:
        """The child's result; {"error": "timeout"} if the server hangs."""
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
            return self._read_line(req["limit_s"] + 10.0)
        except (ServerError, OSError, ValueError):
            self.stop()
            self.start()
            return {"error": oracles.TIMEOUT}

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


# ---------------------------------------------------------------------------
# Provenance and guards


def git_sha(root: str) -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(root: str, args) -> dict:
    return {"git_sha": git_sha(root), "python": sys.version.split()[0],
            "nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class SetupProbes:
    """Set-up times of fresh interpreters, taken all through the run so
    that their median sees the same machine as the samples do.  Each
    probe also asserts where thg was imported from."""

    def __init__(self, root: str):
        self.root = root
        self.times: List[float] = []
        self._last = 0.0

    def probe(self) -> None:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
             self.root], capture_output=True, text=True, timeout=120,
            cwd=self.root)
        if proc.returncode != 0:
            raise ServerError(proc.stderr.strip() or "set-up probe failed")
        self.times.append(json.loads(proc.stdout)["setup_s"])
        self._last = time.monotonic()

    def tick(self) -> None:
        if time.monotonic() - self._last >= SETUP_EVERY_S:
            self.probe()

    def finish(self) -> List[float]:
        while len(self.times) < SETUP_MIN_PROBES:
            self.probe()
        return self.times


# ---------------------------------------------------------------------------
# Running a workload


def _sample(slot: str, elapsed: float, kind: Optional[str], traced: bool,
            maxrss_kb: int = 0, trace=None, detail: str = "") -> dict:
    return {"slot": slot, "elapsed": elapsed, "kind": kind, "traced": traced,
            "maxrss_kb": maxrss_kb, "trace": trace, "detail": detail}


def run_passes(seconds: float, trace: bool, one_pass) -> List[dict]:
    """Whole passes, while the next one is expected to end in time.

    ``one_pass(pass_index, draw, traced)`` sends the requests of
    generator pass ``draw``.  Every slot therefore has as many samples
    as any other.  A traced run sends each drawn pass twice, untraced
    and then traced, so that the tracing overhead compares the same
    requests, and it ends on a whole pair.
    """
    samples: List[dict] = []
    start = time.monotonic()
    pass_index, last = 0, 0.0
    while (pass_index < (2 if trace else 1) or (trace and pass_index % 2)
           or time.monotonic() - start + last <= seconds):
        traced = trace and pass_index % 2 == 1
        draw = pass_index // 2 if trace else pass_index
        t0 = time.monotonic()
        samples += one_pass(pass_index, draw, traced)
        last = time.monotonic() - t0
        pass_index += 1
    return samples


def run_cli(server: Server, workload: str, seed: int, seconds: float,
            trace: bool, reference: Dict[str, str], spans: list,
            tick=lambda: None) -> List[dict]:
    limit = workloads.CLI_LIMIT_S[workload]

    def one_pass(pass_index: int, draw: int, traced: bool) -> List[dict]:
        samples = []
        for i, r in enumerate(workloads.cli_pass(workload, seed, draw)):
            tick()
            samples.append(cli_sample(server, f"{pass_index}.{i}", r, limit,
                                      traced, traced and pass_index == 1,
                                      reference, spans))
        return samples

    return run_passes(seconds, trace, one_pass)


def cli_sample(server: Server, req_id: str, r: dict, limit: float,
               traced: bool, want_spans: bool, reference: Dict[str, str],
               spans: list) -> dict:
    """Send one CLI request and grade its answer."""
    res = server.request({"id": req_id, "kind": "cli", "argv": r["argv"],
                          "limit_s": limit, "trace": traced,
                          "spans": want_spans})
    if "error" in res:
        return _sample(r["slot"], limit, res["error"], traced,
                       detail=" ".join(r["argv"]))
    kind = oracles.check_cli(r["argv"], r["expect_rc"], res["rc"],
                             res["stdout"], reference)
    spans.extend(res.get("spans", ()))
    return _sample(r["slot"], res["elapsed"], kind, traced, res["maxrss_kb"],
                   res.get("trace"), "" if kind is None else " ".join(r["argv"]))


def _batch(server: Server, req_id: str, ops: List[dict], traced: bool,
           want_spans: bool, spans: list) -> List[dict]:
    req = {"id": req_id, "kind": "batch", "ops": ops, "trace": traced,
           "spans": want_spans, "limit_s": sum(op["limit_s"] for op in ops)}
    res = server.request(req)
    if "error" in res:
        return [_sample(op["slot"], op["limit_s"], res["error"], traced)
                for op in ops]
    out = []
    for op, entry in zip(ops, res["ops"]):
        out.append(_sample(op["slot"], entry["elapsed"], entry.get("kind"),
                           traced, res["maxrss_kb"], entry.get("trace"),
                           entry.get("detail", "")))
        spans.extend(entry.get("spans", ()))
    return out


def run_algebra(server: Server, seed: int, seconds: float, trace: bool,
                spans: list, tick=lambda: None) -> List[dict]:
    def one_pass(pass_index: int, draw: int, traced: bool) -> List[dict]:
        tick()
        return _batch(server, str(pass_index),
                      workloads.algebra_pass(seed, draw), traced,
                      traced and pass_index == 1, spans)

    return run_passes(seconds, trace, one_pass)


# ---------------------------------------------------------------------------
# Metrics


def _by_slot(samples: List[dict]) -> Dict[str, List[dict]]:
    out: Dict[str, List[dict]] = defaultdict(list)
    for s in samples:
        out[s["slot"]].append(s)
    return out


def _slot_table(samples: List[dict]) -> dict:
    return {slot: {"median_s": statistics.median(s["elapsed"] for s in group),
                   "samples": len(group)}
            for slot, group in sorted(_by_slot(samples).items())}


def work_s(samples: List[dict]) -> float:
    """Sum over slots of each slot's median latency."""
    return sum(statistics.median(s["elapsed"] for s in group)
               for group in _by_slot(samples).values())


def tail(latencies: List[float]):
    """(value, percentile, count): the highest percentile of the sorted
    latencies with TAIL_BEYOND completed samples beyond it, or the median
    if that percentile would lie below it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(xs), 50.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(samples: List[dict], setup: List[float]) -> dict:
    done = [s["elapsed"] for s in samples if s["kind"] is None]
    value, pct, count = tail(done)
    rss = max(statistics.median(s["maxrss_kb"] for s in group)
              for group in _by_slot(samples).values())
    return {
        "setup_s": (statistics.median(setup), "s"),
        "work_s": (work_s(samples), "s"),
        "req_p50_s": (statistics.median(done), "s"),
        "req_tail_s": (value, "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }, {"tail_percentile": pct, "completed_samples": count}


def per_layer(traced: List[dict], untraced: List[dict],
              probe: List[dict]) -> dict:
    """Per-layer metrics over one traced pass plus the probe set: per-slot
    medians, summed.  The overhead compares the passes alone."""
    measured = [s for s in traced + probe if s["trace"]]
    groups = _by_slot(measured)

    def total(prefix: str, key: str) -> float:
        return sum(statistics.median(s["trace"][prefix].get(key, 0)
                                     for s in group)
                   for group in groups.values())

    units = {name: unit for name, unit, _ in tracer.per_layer_metrics()}
    values = {}
    for prefix, _, _, stats in tracer.TARGETS:
        calls = total(prefix, "calls")
        for stat in stats:
            if stat == tracer.CALLS:
                v = calls
            elif stat == tracer.SELF:
                v = total(prefix, "self")
            elif stat == tracer.INCL:
                v = total(prefix, "incl")
            elif stat == "order_sum":
                v = total(prefix, "order_sum")
            else:  # useful_ratio; no calls means no wasted calls
                v = total(prefix, "keys") / calls if calls else 1.0
            values[f"{prefix}.{stat}"] = v
    snf = ("abelian.snf_diagonal", "abelian.smith_normal_form")
    values["abelian.snf.cells"] = sum(total(p, "cells") for p in snf)
    values["abelian.snf.max_bits"] = max(
        [s["trace"][p].get("max_bits", 0) for s in measured for p in snf]
        or [0])
    values["abelian.snf_probe.timeouts"] = sum(
        1 for s in probe
        if s["slot"].startswith("probe:snf") and s["kind"] == oracles.TIMEOUT)
    values["tower.abelianization.order64_s"] = next(
        (s["elapsed"] for s in probe
         if s["slot"].startswith("probe:abelianization")), 0.0)
    values["cli.out_bytes"] = sum(
        statistics.median(s["trace"].get("cli.out_bytes", 0) for s in group)
        for group in groups.values())
    values["trace.overhead"] = work_s(traced) / work_s(untraced) - 1.0
    return {name: (values[name], units[name]) for name in units}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thg", "__init__.py")):
        print(f"bench: no thg sources under {root}/src", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        reference = json.load(fh)["outputs"]
    prov = provenance(root, args)
    setup_probes = SetupProbes(root)
    try:
        setup_probes.probe()
        server = Server(root)
    except (ServerError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spans: list = []
    probe: List[dict] = []
    try:
        if args.workload == "algebra-kernels":
            samples = run_algebra(server, args.seed, args.seconds,
                                  bool(args.trace), spans, setup_probes.tick)
        else:
            samples = run_cli(server, args.workload, args.seed, args.seconds,
                              bool(args.trace), reference, spans,
                              setup_probes.tick)
        if args.trace:
            probe = _batch(server, "probe", workloads.probe_ops(args.seed),
                           True, False, [])
            probe += [cli_sample(server, r["slot"], r, 60.0, True, False,
                                 reference, [])
                      for r in workloads.probe_cli()]
        setup = setup_probes.finish()
    finally:
        server.stop()

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics, tail_info = end_to_end(untraced, setup)
    if args.trace:
        metrics.update(per_layer(traced, untraced, probe))
        wanted = [name for name, _, _ in tracer.per_layer_metrics()]
    else:
        wanted = ["setup_s", "work_s", "req_p50_s", "req_tail_s",
                  "peak_rss_mb"]
    # A probe that runs out of time is the measured defect, not a failure.
    failures = [{"slot": s["slot"], "kind": s["kind"], "detail": s["detail"]}
                for s in samples if s["kind"] is not None]
    failures += [{"slot": s["slot"], "kind": s["kind"], "detail": s["detail"]}
                 for s in probe if s["kind"] not in (None, oracles.TIMEOUT)]
    attempted = len(samples) + len(probe)
    wrong = [f for f in failures if f["kind"] != oracles.TIMEOUT]

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, **tail_info,
                   "attempted": attempted, "failures": failures,
                   "probe": [{"slot": s["slot"], "kind": s["kind"],
                              "elapsed": s["elapsed"]} for s in probe],
                   "slots": _slot_table(untraced),
                   "traced_slots": _slot_table(traced),
                   "setup_samples": setup}, fh, indent=1, sort_keys=True)
    if spans:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    print(json.dumps({"provenance": prov}))
    print(f"req_tail_s is p{tail_info['tail_percentile']:.1f} of "
          f"{tail_info['completed_samples']} completed samples; "
          f"{len(failures)} failed of {attempted}")
    for f in failures[:20]:
        print(f"failed: {f['kind']}: {f['slot']} {f['detail']}")
    print(json.dumps({
        "correct": not wrong, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
