"""The entwine benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in its own fresh
worker process (see worker.py) with BLAS threads capped at nproc and an
address-space cap, so an oversize allocation becomes a counted failure.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics: ``setup_s`` (median over several fresh workers of
interpreter start to first timed call), ``verdicts_per_s``, ``cmd_p50_ms``,
``cmd_tail_ms`` and ``peak_rss_mb``.  With ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it give each metric
with its unit and sample count, ``fail_frac``, the tail percentile used and
the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 9  # set-up is timed in this many fresh workers; the median is reported
MEM_CAP = 3 * 2**29  # worker address-space cap, bytes
DEADLINE = 170.0  # the whole run must end within this many seconds


class WorkerError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, mode: str, deadline: float) -> tuple:
    """Start one worker; returns (set-up seconds, RESULT payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ROOT, args.workload, str(args.seed),
           str(args.seconds), str(args.trace), mode, str(MEM_CAP)]
    log_path = os.path.join(ROOT, ".perfbench", f"{args.workload}.worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                env=worker_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            setup_s, result = None, None
            for line in proc.stdout:
                if line == "READY\n" and setup_s is None:
                    setup_s = time.perf_counter() - t0
                elif line.startswith("RESULT "):
                    result = json.loads(line[len("RESULT "):])
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    if code != 0 or setup_s is None or (mode == "run" and result is None):
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise WorkerError(f"worker ({mode}) exited with {code}:\n{tail}")
    return setup_s, result


def tail(latencies: list) -> tuple:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "entwine", "cli.py")):
        print(f"perfbench: no engine source under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(spawn(args, "setup", deadline)[0])
        setup_s, res = spawn(args, "run", deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    lat = res["latencies"]
    fail_frac = res["failed"] / res["attempted"]
    detail = {
        "workload": args.workload,
        "env": res["env"],
        "passes": len(res["pass_walls"]),
        "pass_walls": res["pass_walls"],
        "calls_per_pass": res["calls_per_pass"],
        "fail_frac": fail_frac,
        "failures": res["failures"],
        "median_s_by_command": res["by_command_s"],
    }
    if args.trace:
        detail["traced_passes"] = res["traced_passes"]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(res["layers"].items())}
        samples = {k: res["traced_passes"] for k in metrics}
    else:
        tail_s, pct = tail(lat)
        detail.update({"tail_percentile": pct, "setup_runs_s": setups})
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "verdicts_per_s": {"value": len(lat) / sum(res["pass_walls"]), "unit": "1/s"},
            "cmd_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "cmd_tail_ms": {"value": 1e3 * tail_s, "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        samples = {"setup_s": len(setups), "verdicts_per_s": len(lat), "cmd_p50_ms": len(lat),
                   "cmd_tail_ms": len(lat), "peak_rss_mb": 1}
    for name, m in metrics.items():
        print(f"{args.workload:>16}  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={samples[name]}")
    print(f"{args.workload:>16}  {'fail_frac':<40} {fail_frac:>14.6g} {'frac':<6} n={res['attempted']}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
