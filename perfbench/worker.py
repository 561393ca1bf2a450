"""Benchmark worker: one fresh process runs one workload.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE MODE MEM_CAP

The worker caps its address space, imports the engine from ROOT/src,
writes the workload's instance files, makes one untimed warm-up call and
prints ``READY``; the parent times set-up up to that line.  In ``setup``
mode it then exits.  In ``run`` mode it runs whole passes of the workload
as a closed loop (one caller; each call starts when the previous returns)
for SECONDS, checks every output, and prints one ``RESULT`` line.  With
TRACE = 1 the first half of the time is untraced and the second half
traced, so the per-layer numbers and the tracing overhead come from the
same process.

A call is ``entwine.cli.main(argv)`` in-process with stdout and stderr
captured.  It fails when it raises (MemoryError included, which is how the
address-space cap shows), when its exit code or a named verdict differs
from the known answer, or when its output bytes differ from an earlier
execution of the same call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time


def execute(cli, call):
    """Run one call; returns (seconds, exit code or None, stdout, stderr, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - every raise is a counted failure
        code, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, out.getvalue(), err.getvalue(), error


def verdicts_of(call, text: str) -> dict:
    """Check name -> verdict, from the JSON or the human report."""
    if call.json:
        return {c["name"]: c["verdict"] for c in json.loads(text)["checks"]}
    found = {}
    for line in text.splitlines():
        for verdict in ("PASS", "FAIL"):
            if line.endswith("  " + verdict):
                found[line[: -len(verdict)].rstrip()] = verdict
    return found


def validate(call, code: int, text: str, err: str) -> str:
    """Empty string when the output matches the known answer, else why not."""
    if call.stderr and call.stderr not in err:
        return f"stderr lacks {call.stderr!r}"
    if call.objects:
        got = json.loads(text).get("objects")
        return "" if got == call.objects else f"objects {got} != {call.objects}"
    if code == 2:
        return ""
    if call.json and json.loads(text)["exit"] != code:
        return "JSON exit field differs from the exit code"
    if not call.json and not text.endswith(f"exit: {code}\n"):
        return "human report does not end with its exit code"
    checks = verdicts_of(call, text)
    for needle, want in call.verdicts:
        hits = [v for name, v in checks.items() if needle in name]
        if not hits:
            return f"no check named like {needle!r}"
        if any(v != want for v in hits):
            return f"{needle!r}: expected {want}"
    return ""


class Checker:
    """Per-call correctness: exit code and raise at every execution, output
    bytes against the first execution, verdicts once per call after the
    timed loop (so parsing large reports is not timed)."""

    def __init__(self) -> None:
        self.first = {}  # key -> (digest, code, stdout, stderr)
        self.bad = {}  # key -> reason, for executions already counted
        self.failed = 0

    def record(self, call, code, text, err, error, count=True) -> None:
        digest = hashlib.blake2b(text.encode()).digest()
        if call.key not in self.first:
            self.first[call.key] = (digest, code, text, err)
        reason = ""
        if error is not None:
            reason = error
        elif code != call.exit:
            reason = f"exit {code}, expected {call.exit}"
        elif digest != self.first[call.key][0]:
            reason = "output differs from an earlier execution"
        if reason:
            self.failed += count
            self.bad.setdefault(call.key, reason)

    def finish(self, calls, passes: int) -> None:
        """Validate verdicts; a wrong answer fails every timed execution of
        that call (one per pass) not already counted."""
        for call in calls:
            if call.key not in self.first or call.key in self.bad:
                continue
            _, code, text, err = self.first[call.key]
            try:
                reason = validate(call, code, text, err)
            except (ValueError, KeyError) as exc:
                reason = f"unreadable report: {exc}"
            if reason:
                self.bad[call.key] = reason
                self.failed += passes


def run_passes(cli, calls, checker, budget: float, tracer=None):
    """Whole passes for as long as another pass is expected to fit in
    ``budget`` seconds, and at least one.  Returns (latencies in
    call order, wall time of each pass)."""
    latencies, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for call in calls:
            if tracer is not None:
                tracer.begin_call(call)
            seconds, code, text, err, error = execute(cli, call)
            latencies.append(seconds)
            checker.record(call, code, text, err, error)
        end = time.perf_counter()
        walls.append(end - t0)
        if end - start + (end - start) / len(walls) > budget:
            return latencies, walls


def environment(cap: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "mem_cap_mb": cap // 2**20,
    }


def main(argv) -> int:
    root, workload, seed, seconds, trace, mode, cap = argv
    seed, seconds, trace, cap = int(seed), float(seconds), trace == "1", int(cap)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    sys.path.insert(0, os.path.join(root, "src"))
    import entwine
    import entwine.cli
    import workloads

    calls = workloads.build(workload, seed, root, os.path.join(root, ".perfbench", workload))
    checker = Checker()
    checker.record(calls[0], *execute(entwine.cli, calls[0])[1:], count=False)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    result = {"env": dict(environment(cap), seed=seed), "calls_per_pass": len(calls)}
    budget = seconds / 2 if trace else seconds
    latencies, walls = run_passes(entwine.cli, calls, checker, budget)
    passes = len(walls)
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install(entwine)
        t_lat, t_walls = run_passes(entwine.cli, calls, checker, budget, tracer)
        result["layers"] = spans.layer_metrics(tracer, t_walls, walls)
        result["traced_passes"] = len(t_walls)
        tracer.dump(os.path.join(root, ".perfbench", f"{workload}.spans.tsv"), len(calls))
        latencies += t_lat
        passes += len(t_walls)
    checker.finish(calls, passes)
    by_command = {}
    for i, seconds_taken in enumerate(latencies):
        by_command.setdefault(calls[i % len(calls)].command, []).append(seconds_taken)
    result.update({
        "latencies": latencies,
        "pass_walls": walls,
        "attempted": len(latencies),
        "failed": checker.failed,
        "failures": dict(sorted(checker.bad.items())[:10]),
        "by_command_s": {k: sorted(v)[len(v) // 2] for k, v in sorted(by_command.items())},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
