#!/usr/bin/env python3
"""The repository's benchmark: cold compile, warm exploration, the service.

Run from the repository root::

    python3 perfbench/run.py --workload cold-compile --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-mix --seed 1 --trace 1
    python3 perfbench/run.py --workload warm-explore --seed 1 --repeat 5
    python3 perfbench/run.py --pin

Every run executes in a fresh child interpreter (``perfbench/workloads.py``)
with a hermetic environment: inherited ``REPRO_*`` variables are cleared,
``PYTHONHASHSEED`` is fixed, and ``REPRO_CACHE_DIR``/``TMPDIR`` point at a
fresh directory under ``.perfbench-work/`` that is deleted afterwards.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).

``--repeat N`` runs seeds ``seed .. seed+N-1`` and prints each end-to-end
metric's median and quartiles, flagging any whose interquartile spread
exceeds the metric's bound.  ``--pin`` regenerates ``expected.json``, the
fingerprints of direct ``Flow.run`` compiles the output checks compare
against.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold-compile", "warm-explore", "service-mix")

#: A run (set-up, timed phase, checks) must end well inside the 180 s the
#: benchmark contract allows.
RUN_TIMEOUT_S = 170.0
#: Building the four calibration tables, once per checkout.
TABLES_TIMEOUT_S = 600.0
PIN_TIMEOUT_S = 900.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def fail(message: str) -> None:
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec(root: str) -> Dict[str, Any]:
    path = os.path.join(root, "BENCHMARK.json")
    with open(path) as handle:
        return json.load(handle)


def hermetic_env(root: str, cache_dir: str, tmp_dir: str) -> Dict[str, str]:
    """The child's environment: no inherited ``REPRO_*`` knob survives."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
        REPRO_CACHE_DIR=cache_dir,
        TMPDIR=tmp_dir,
    )
    return env


def run_child(args: List[str], env: Dict[str, str], cwd: str, timeout: float) -> None:
    """Run ``workloads.py`` in its own process group; kill the whole group
    (the service daemon and its workers included) if it overruns."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py")] + args
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"{args[0]} exceeded {timeout:.0f} s and was killed")
    finally:
        try:  # reap stragglers the child failed to stop
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise BenchError(f"{args[0]} exited with code {code}")


class Bench:
    """Paths of one checkout's benchmark state."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.work = os.path.join(root, ".perfbench-work")
        self.tables = os.path.join(self.work, "tables")
        self.traces = os.path.join(self.work, "traces")

    def _scratch(self, prefix: str) -> str:
        os.makedirs(self.work, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix=prefix, dir=self.work)
        for sub in ("cache", "tmp"):
            os.makedirs(os.path.join(scratch, sub))
        return scratch

    def ensure_tables(self) -> None:
        """Build the §4.1 calibration tables of every device once per
        checkout; runs copy them in untimed (see README, "Noise")."""
        os.makedirs(self.work, exist_ok=True)
        with open(os.path.join(self.work, "tables.lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent first runs build once
            if os.path.exists(os.path.join(self.tables, "characterize.json")):
                return
            scratch = self._scratch("tables-")
            try:
                staging = os.path.join(scratch, "cache")
                env = hermetic_env(self.root, staging, os.path.join(scratch, "tmp"))
                run_child(["build-tables", "--out", staging], env, self.root, TABLES_TIMEOUT_S)
                shutil.rmtree(self.tables, ignore_errors=True)
                os.replace(staging, self.tables)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)

    def run_once(self, workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
        self.ensure_tables()
        scratch = self._scratch(f"run-{workload}-")
        try:
            out = os.path.join(scratch, "result.json")
            env = hermetic_env(
                self.root, os.path.join(scratch, "cache"), os.path.join(scratch, "tmp")
            )
            run_child(
                [
                    "run",
                    "--workload", workload,
                    "--seed", str(seed),
                    "--seconds", repr(float(seconds)),
                    "--trace", "1" if trace else "0",
                    "--tables", self.tables,
                    "--trace-dir", self.traces,
                    "--out", out,
                ],
                env,
                self.root,
                RUN_TIMEOUT_S,
            )
            with open(out) as handle:
                return json.load(handle)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def pin(self) -> None:
        self.ensure_tables()
        scratch = self._scratch("pin-")
        try:
            env = hermetic_env(
                self.root, os.path.join(scratch, "cache"), os.path.join(scratch, "tmp")
            )
            run_child(
                ["pin", "--tables", self.tables, "--out", os.path.join(HERE, "expected.json")],
                env,
                self.root,
                PIN_TIMEOUT_S,
            )
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def machine() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def result_line(doc: Dict[str, Any], spec: Dict[str, Any], trace: bool) -> Dict[str, Any]:
    """The contract's last line: every metric BENCHMARK.json lists, with
    its unit, and nothing else."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in doc["metrics"]]
    if missing:
        raise BenchError(f"workload did not report {', '.join(missing)}")
    return {
        "correct": bool(doc["correct"]),
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {
            m["name"]: {"value": doc["metrics"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def print_run(doc: Dict[str, Any], line: Dict[str, Any]) -> None:
    env = doc["env"]
    print(
        f"env: nproc={env['nproc']} python={env['python']} cpu={env['cpu']}"
        f" workload={doc['workload']} seed={doc['seed']} passes={doc['passes']}"
    )
    for problem in doc["problems"]:
        print(f"check failed: {problem}")
    fail_ratio = line["failed"] / line["attempted"]
    print(
        f"fail_ratio: {fail_ratio:.4f} ({line['failed']} of {line['attempted']} "
        f"operations failed or mismatched)"
    )
    for name, metric in line["metrics"].items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(bench: Bench, spec: Dict[str, Any], args) -> int:
    """Run N seeds; report each end-to-end metric's median and quartiles."""
    series: Dict[str, List[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    all_correct = True
    for i in range(args.repeat):
        doc = bench.run_once(args.workload, args.seed + i, args.seconds, False)
        line = result_line(doc, spec, False)
        all_correct &= line["correct"]
        for name, metric in line["metrics"].items():
            series[name].append(metric["value"])
        print(
            f"seed {args.seed + i}: correct={line['correct']} "
            + " ".join(f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()),
            flush=True,
        )
    summary: Dict[str, Any] = {}
    over = []
    print(f"{'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, med, q3 = quartiles(series[name])
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > metric["bound"]:
            flag = "OVER BOUND"
            if name != "setup_s":
                over.append(name)
        elif spread > metric["bound"] / 3:
            flag = "above bound/3"
        print(
            f"{name:24s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
            f"{metric['bound']:6.3f} {flag}"
        )
        summary[name] = {
            "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "values": series[name],
        }
    print(json.dumps({"workload": args.workload, "runs": args.repeat,
                      "correct": all_correct, "over_bound": over, "metrics": summary}))
    return 0 if all_correct and not over else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "flow.py")):
        fail("run from the repository root: src/repro is missing")
    spec = load_spec(root)
    bench = Bench(root)
    try:
        if args.pin:
            bench.pin()
            return 0
        if args.workload is None:
            fail("--workload is required")
        if args.repeat:
            return repeat(bench, spec, args)
        doc = bench.run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        doc["env"] = machine()
        line = result_line(doc, spec, bool(args.trace))
    except BenchError as exc:
        fail(str(exc))
    print_run(doc, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
