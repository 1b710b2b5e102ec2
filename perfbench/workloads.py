"""The benchmark's workloads; runs inside the hermetic child ``run.py`` starts.

Sub-commands:

* ``run`` — one workload run; writes its result document to ``--out``;
* ``build-tables`` — characterize every device's §4.1 calibration table
  into ``--out`` (once per checkout; the per-device build times are kept);
* ``pin`` — compile every point the output checks cover with a direct
  ``Flow.run`` and write their fingerprints to ``expected.json``.

The program is driven only through public entry points: ``Flow.run``,
``repro.dse.explore``, ``resolve_calibration``, and a ``repro serve``
subprocess through ``ServiceClient`` (plus its ``/metrics`` and
``/trace/<digest>``).  Why each workload exists, and what each metric
measures, is in ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402

from repro import obs  # noqa: E402
from repro.delay.cache import default_calibration_path, resolve_calibration  # noqa: E402
from repro.designs.registry import DESIGN_BUILDERS, build_design, design_names  # noqa: E402
from repro.dse import InlineBackend, explore  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.flow import DEFAULT_CLOCK_MHZ, Flow  # noqa: E402
from repro.obs.exposition import parse_exposition  # noqa: E402
from repro.opt import CONFIG_LABELS, FULL  # noqa: E402
from repro.pipeline import StageArtifactStore  # noqa: E402
from repro.rtl.checker import check_generated  # noqa: E402
from repro.service.client import ServiceBusyError, ServiceClient, ServiceError  # noqa: E402
from repro.service.request import FlowRequest  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402

#: Placement and characterization seed of every compile.  The workload
#: seed changes the inputs (order, search seeds, request mix), never this.
FLOW_SEED = 2020
DEVICES = ("aws-f1", "zc706", "alveo-u50", "virtex-7")
#: cold-compile's set-up characterizes this device from an empty cache.
SETUP_DEVICE = "zc706"
#: The timed phase repeats its pass until ``--seconds`` have been spent,
#: at most this many times.
MAX_PASSES = 4

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# warm-explore ---------------------------------------------------------------
EXPLORE_DESIGN = "genome"
EXPLORE_PARAMS = {"unroll": 8}
EXPLORE_BUDGET = 20
#: Search seeds of a pass: the set-up's seed (re-searched) and its
#: neighbours.  The set is fixed and the workload seed orders it, as in
#: cold-compile: a different set per workload seed changed how many new
#: points a pass compiles, and wall time spread by 12 % across seeds.
EXPLORE_SEEDS = tuple(range(2020, 2028))

# service-mix ----------------------------------------------------------------
SERVICE_DESIGNS = (
    "face_detection", "matmul", "stream_buffer", "stencil", "hbm_stencil",
    "pattern_matching", "double_buffer", "dynamic_struct", "vec_stream",
)
SERVICE_CONFIGS = ("orig", "full")
#: Clock retargets of the compile requests (× the design's target); a
#: pass compiles every hot point at each of them.  With one worker and two
#: clients, a compile often queues behind the other client's; 54 compiles
#: a pass keep that share, and so latency_p90_s, steadier across seeds
#: than 36 did.
CLOCK_FACTORS = (0.8, 0.9, 1.1)
HITS_PER_PASS = 246
ZIPF_S = 1.1
CLIENT_THREADS = 2
DAEMON_START_TIMEOUT_S = 30.0

#: rtl.checker runs on every cold result up to this size; its path walks
#: take about a minute on the 22k-cell designs (lstm, vector_arith), so
#: those are checked when pinning and their fingerprints compared here.
CHECK_MAX_CELLS = 8000

#: Tracing-overhead probe length (seconds of untraced work, cold-compile).
PROBE_S = 3.0


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def now() -> float:
    return time.perf_counter()


def nominal_clock(design: str) -> float:
    return float(build_design(design).meta.get("clock_mhz", DEFAULT_CLOCK_MHZ))


def point_key(design: str, config: str, clock_mhz: float) -> str:
    """``design/config-label/clock`` — the key of ``expected.json``."""
    return f"{design}/{CONFIG_LABELS[config].label}/{clock_mhz:.1f}"


def cold_points() -> List[Tuple[str, str]]:
    return [(d, c) for d in design_names(include_extra=True) for c in ("orig", "full")]


def service_grid() -> List[Tuple[str, str, float]]:
    return [
        (d, c, round(nominal_clock(d) * f, 1))
        for d in SERVICE_DESIGNS for c in SERVICE_CONFIGS for f in CLOCK_FACTORS
    ]


def table_name(device: str) -> str:
    return os.path.basename(
        default_calibration_path(device, FLOW_SEED, Flow.SMOOTH_PASSES)
    )


def copy_tables(tables: str, dest: str, skip: Optional[str] = None) -> None:
    os.makedirs(dest, exist_ok=True)
    for device in DEVICES:
        if device != skip:
            shutil.copy2(os.path.join(tables, table_name(device)), dest)


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total / 1e6


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def zipf_counts(n: int) -> List[int]:
    """HITS_PER_PASS split over ``n`` ranks by Zipf weight (largest
    remainder), so every seed's mix has the same composition."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n)]
    shares = [HITS_PER_PASS * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(n), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[:HITS_PER_PASS - sum(counts)]:
        counts[i] += 1
    return counts


def load_expected() -> Dict[str, Dict[str, Any]]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["points"]


class Run:
    """What one workload run measured and checked."""

    def __init__(self, args) -> None:
        self.args = args
        self.trace = bool(args.trace)
        self.tracer = obs.Tracer() if self.trace else None
        self.expected = load_expected()
        self.latencies: List[float] = []
        self.pass_walls: List[float] = []
        self.attempted = 0
        self.bad_ops: set = set()
        self.problems: List[str] = []
        #: result digest → Fmax of every distinct result of the run.
        self.results: Dict[str, float] = {}
        self.setup_s = 0.0
        self.disk_mb = 0.0
        self.peak_rss_mb = 0.0
        self.rows: List[Dict[str, Any]] = []
        self.refused = 0

    def problem(self, op: Any, message: str) -> None:
        self.bad_ops.add(op)
        self.problems.append(message)

    def check_digest(self, op: Any, key: str, digest: str) -> None:
        want = self.expected.get(key, {}).get("result_digest")
        if want is None:
            self.problem(op, f"{key}: no pinned fingerprint in expected.json")
        elif digest != want:
            self.problem(op, f"{key}: fingerprint {digest[:12]} != pinned {want[:12]}")

    def passes(self, run_pass: Callable[[int], float], limit: int = MAX_PASSES) -> None:
        """Repeat the timed pass until ``--seconds`` have been spent."""
        spent = 0.0
        for k in range(limit):
            wall = run_pass(k)
            self.pass_walls.append(wall)
            spent += wall
            if spent >= self.args.seconds:
                break

    def end_to_end(self) -> Dict[str, float]:
        lat = sorted(self.latencies)
        return {
            "setup_s": self.setup_s,
            "wall_s": median(self.pass_walls),
            "latency_p50_s": median(lat),
            "latency_p90_s": p90(lat) if len(lat) > 1 else median(lat),
            "peak_rss_mb": self.peak_rss_mb,
            "disk_mb": self.disk_mb,
            "fmax_geomean_mhz": geomean(list(self.results.values())) if self.results else 0.0,
        }


def rtl_problems(entry: Dict[str, Any]) -> List[str]:
    """rtl.checker over the netlist and schedules as rtl-gen and scheduling
    emitted them, read back from the stage store.

    The physical stages after rtl-gen retime movable registers across op
    cells, which the checker's per-path register count does not model, so
    the final netlist of a result is not what it checks.
    """
    store = StageArtifactStore(root=entry["stage_root"])
    outputs = {}
    for stage, key in (("scheduling", "schedules"), ("rtl-gen", "gen")):
        stored = store.get(entry[stage]) if entry[stage] else None
        if stored is None:
            return [f"{stage} artifact of {entry['key']} is missing from the stage store"]
        outputs[key] = stored.load()[key]
    return check_generated(outputs["gen"], outputs["schedules"])


def overhead(metrics: Dict[str, float], untraced: List[float], traced: List[float]) -> None:
    """Tracing overhead: median traced ÷ median untraced time of one probe
    operation, run on identical state."""
    metrics["obs.probe_untraced_s"] = median(untraced)
    metrics["obs.probe_traced_s"] = median(traced)
    metrics["obs.tracing_overhead_ratio"] = layers.ratio(median(traced), median(untraced))


def alternate(op: Callable[[int], Any], rounds: int) -> Tuple[List[float], List[float]]:
    """Time ``op(i)`` untraced then traced, ``rounds`` times over."""
    untraced, traced = [], []
    for i in range(rounds):
        started = now()
        op(i)
        untraced.append(now() - started)
        with obs.activate(obs.Tracer()):
            started = now()
            op(i)
            traced.append(now() - started)
    return untraced, traced


def characterize_record(tables: str) -> Dict[str, float]:
    with open(os.path.join(tables, "characterize.json")) as handle:
        seconds = json.load(handle)
    return {f"delay.characterize_s.{d}": seconds[d] for d in DEVICES}


# ---------------------------------------------------------------------------
# cold-compile
# ---------------------------------------------------------------------------
def cold_compile(run: Run) -> Dict[str, float]:
    """Every registered design × {BASELINE, FULL}, in seeded order, in one
    process on a fresh cache: the user's first compile of each design."""
    args = run.args
    cache_root = os.environ["REPRO_CACHE_DIR"]
    # The seed orders the designs; each design compiles BASELINE then FULL
    # through its own default Flow, as Flow.compare (Table 1) does.  A
    # free shuffle of the 24 compiles moved the shared front-end between
    # configs, and one Flow for all designs let its memos grow the heap
    # that every later compile's garbage collections walk: both spread
    # latency_p50_s (25 %) and peak_rss_mb (20 %) across seeds.
    designs = design_names(include_extra=True)
    random.Random(f"perfbench/cold-compile/{args.seed}").shuffle(designs)

    def use_cache(name: str) -> str:
        path = os.path.join(cache_root, name)
        os.makedirs(path, exist_ok=True)
        os.environ["REPRO_CACHE_DIR"] = path
        return path

    first = use_cache("pass-0")
    with obs.activate(run.tracer) if run.trace else contextlib.nullcontext():
        started = now()
        with obs.span("bench.characterize", device=SETUP_DEVICE):
            resolve_calibration(SETUP_DEVICE, seed=FLOW_SEED, smooth_passes=Flow.SMOOTH_PASSES)
        run.setup_s = now() - started
    setup_roots = len(run.tracer.roots) if run.trace else 0
    copy_tables(args.tables, first, skip=SETUP_DEVICE)

    store: Optional[layers.TimedStageStore] = None
    #: What the output checks need, kept small so no result outlives its
    #: compile; the checks run after the timed phase.
    compiled: List[Dict[str, Any]] = []
    journals: List[List[Dict[str, Any]]] = []

    def compile_designs(k: int, names: List[str], record: bool) -> List[float]:
        times = []
        for name in names:
            flow = Flow(stage_cache=store)
            for config in ("orig", "full"):
                cfg = CONFIG_LABELS[config]
                gc.collect()  # earlier compiles' garbage must not move the peak RSS
                started = now()
                try:
                    with obs.span("bench.compile", design=name, config=cfg.label):
                        with obs.span("bench.build_design"):
                            design = build_design(name)
                        result = flow.run(design, cfg)
                except ReproError as exc:
                    run.problem((k, name, config), f"{name}/{cfg.label}: {exc}")
                    continue
                elapsed = now() - started
                times.append(elapsed)
                if record:
                    compiled.append(summarize(k, name, config, result, elapsed))
                del design, result
        return times

    def summarize(k: int, name: str, config: str, result, elapsed: float) -> Dict[str, Any]:
        stages = {e["stage"]: e["digest"] for e in result.journal or ()}
        entry = {
            "op": (k, name, config), "elapsed": elapsed,
            "key": point_key(name, config, result.clock_target_mhz),
            "digest": result.result_digest(), "fmax": result.fmax_mhz,
            "cells": len(result.gen.netlist.cells),
            "stage_root": os.path.join(os.environ["REPRO_CACHE_DIR"], "stages"),
            "scheduling": stages.get("scheduling"), "rtl-gen": stages.get("rtl-gen"),
        }
        if result.trace is not None:
            journals.append(result.journal)
            run.rows.append({
                "design": name, "config": result.config_label, "latency_s": elapsed,
                "fmax_mhz": result.fmax_mhz, "cells": entry["cells"],
                "nets": len(result.gen.netlist.nets),
                "stages_s": layers.stage_seconds(result.trace),
            })
        return entry

    def run_pass(k: int) -> float:
        nonlocal store
        if k:
            copy_tables(args.tables, use_cache(f"pass-{k}"))
        else:
            os.environ["REPRO_CACHE_DIR"] = first
        store = layers.TimedStageStore() if run.trace else None
        run.attempted += 2 * len(designs)
        return sum(compile_designs(k, designs, True))

    def check_all() -> None:
        fmax: Dict[Tuple[int, str, str], float] = {}
        for entry in compiled:
            op, key = entry["op"], entry["key"]
            run.latencies.append(entry["elapsed"])
            run.check_digest(op, key, entry["digest"])
            if entry["cells"] <= CHECK_MAX_CELLS:
                for violation in rtl_problems(entry)[:3]:
                    run.problem(op, f"{key}: rtl.checker: {violation}")
            elif run.expected.get(key, {}).get("rtl_problems", 1):
                run.problem(op, f"{key}: rtl.checker did not pass when pinned")
            fmax[op] = entry["fmax"]
            if op[0] == 0:
                run.results[entry["digest"]] = entry["fmax"]
        for k in range(len(run.pass_walls)):
            for name in DESIGN_BUILDERS:  # the nine Table 1 designs
                orig, full = fmax.get((k, name, "orig")), fmax.get((k, name, "full"))
                if orig is not None and full is not None and not full > orig:
                    run.problem((k, name, "full"),
                                f"{name}: FULL {full:.1f} MHz <= BASELINE {orig:.1f} MHz")

    if run.trace:
        with obs.activate(run.tracer):
            run.passes(run_pass)
        check_all()
        metrics = layers.layer_metrics(run.tracer.roots[setup_roots:], journals, store)
        metrics["delay.characterize.self_s"] = layers.layer_self_times(
            run.tracer.roots[:setup_roots]
        ).get("delay.characterize", 0.0)
        # Overhead probe: about PROBE_S of the order's quicker designs,
        # compiled untraced, traced, traced, untraced (so a trend or the
        # second-run advantage cancels), each time on a fresh cache.
        store = None
        pass_s: Dict[str, float] = {}
        for entry in compiled:
            name = entry["op"][1]
            pass_s[name] = pass_s.get(name, 0.0) + entry["elapsed"]
        prefix, spent = [], 0.0
        for name in designs:
            if spent < PROBE_S and pass_s.get(name, PROBE_S) < PROBE_S:
                prefix.append(name)
                spent += pass_s[name]

        def probe(i: int) -> float:
            copy_tables(args.tables, use_cache(f"probe-{i}"))
            return sum(compile_designs(-1, prefix, False))

        untraced = [probe(0)]
        with obs.activate(obs.Tracer()):
            traced = [probe(1) + probe(2)]
        untraced[0] += probe(3)
        overhead(metrics, untraced, traced)
        return metrics
    run.passes(run_pass)
    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
    run.disk_mb = dir_mb(first)
    check_all()
    return run.end_to_end()


# ---------------------------------------------------------------------------
# warm-explore
# ---------------------------------------------------------------------------
class TimedFlow(Flow):
    """A default ``Flow`` that times each run the explorer asks of it.

    A search's latency depends on how many of its points are new, so the
    per-operation latency of warm-explore is one point evaluation: a
    search of budget 20 gives about 20 samples where it would give one.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.samples: Optional[List[float]] = None
        self.journals: List[List[Dict[str, Any]]] = []

    def run(self, *args: Any, **kwargs: Any):
        started = now()
        result = super().run(*args, **kwargs)
        if self.samples is not None:
            self.samples.append(now() - started)
            self.journals.append(result.journal)
        return result


def warm_explore(run: Run) -> Dict[str, float]:
    """A cold genome search as set-up; the timed phase re-runs it and then
    searches neighbouring seeds on the warm stores, overlay and memos."""
    args = run.args
    cache = os.environ["REPRO_CACHE_DIR"]
    copy_tables(args.tables, cache)
    store = layers.TimedStageStore() if run.trace else None
    flow = TimedFlow(seed=FLOW_SEED, stage_cache=store)
    backend = InlineBackend(flow)

    def search(seed: int):
        with obs.span("bench.search", seed=seed):
            return explore(
                EXPLORE_DESIGN, params=dict(EXPLORE_PARAMS), backend=backend,
                budget=EXPLORE_BUDGET, seed=seed,
            )

    def canonical(report) -> str:
        return json.dumps(report.to_dict(), sort_keys=True)

    def record(report) -> None:
        for ev in report.evaluations:
            if ev.status == "compiled" and ev.result_digest:
                run.results[ev.result_digest] = ev.fmax_mhz

    with obs.activate(run.tracer) if run.trace else contextlib.nullcontext():
        started = now()
        reference = search(EXPLORE_SEEDS[0])
        run.setup_s = now() - started
        setup_roots = len(run.tracer.roots) if run.trace else 0
    record(reference)
    reference_text = canonical(reference)
    reports = []

    def run_pass(k: int) -> float:
        first, *neighbours = EXPLORE_SEEDS
        seeds = [first] + [seed + k * len(neighbours) for seed in neighbours]
        random.Random(f"perfbench/warm-explore/{args.seed}/{k}").shuffle(seeds)
        wall = 0.0
        flow.samples, mark = run.latencies, len(flow.journals)
        for seed in seeds:
            op = (k, seed)
            started = now()
            report = search(seed)
            wall += now() - started
            reports.append(report)
            if seed == first and canonical(report) != reference_text:
                run.problem(op, f"re-search of seed {seed} differs from the set-up search")
            if report.failed:
                run.problem(op, f"seed {seed}: {report.failed} point(s) failed to compile")
            full = [e.fmax_mhz for e in report.evaluations
                    if e.generation == 0 and e.status == "compiled" and e.point.config_label == FULL.label]
            if report.winner is None or (full and report.winner.fmax_mhz < max(full)):
                run.problem(op, f"seed {seed}: winner is worse than hand-tuned FULL")
            if k == 0:
                record(report)
        flow.samples = None
        run.attempted = len(run.latencies)
        stages_run = sum(1 for j in flow.journals[mark:] for e in j if e["action"] == "run")
        print(f"pass {k}: {len(seeds)} searches, {run.attempted} point evaluations so far, "
              f"{stages_run} flow stages run")
        return wall

    if run.trace:
        with obs.activate(run.tracer):
            run.passes(run_pass)
        metrics = layers.layer_metrics(run.tracer.roots[setup_roots:], flow.journals, store)
        enumerated = sum(r.enumerated for r in reports)
        compiled = sum(r.compiled for r in reports)
        metrics.update({
            "dse.enumerated": enumerated,
            "dse.compiled": compiled,
            "dse.compile_ratio": layers.ratio(compiled, enumerated),
            "dse.search_s": sum(run.pass_walls),
        })
        # Overhead probe: the re-search is idempotent, so alternate it.
        overhead(metrics, *alternate(lambda _: search(EXPLORE_SEEDS[0]), 3))
        return metrics
    run.passes(run_pass)
    run.disk_mb = dir_mb(cache)
    run.peak_rss_mb = rss_mb(resource.RUSAGE_SELF)
    return run.end_to_end()


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------
class Daemon:
    """A ``repro serve --workers 1`` subprocess on an ephemeral port."""

    def __init__(self, log_dir: str) -> None:
        self.log_path = os.path.join(log_dir, "daemon.log")
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--workers", "1"],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.client = ServiceClient("127.0.0.1", self._port())
            self.client.wait_ready(timeout=DAEMON_START_TIMEOUT_S)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self._log.close()
            raise

    def _port(self) -> int:
        deadline = now() + DAEMON_START_TIMEOUT_S
        while now() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if "listening on http://" in line:
                        return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError(f"repro serve did not start; see {self.log_path}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.client.shutdown()
                self.proc.wait(timeout=15)
            except (ServiceError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def exposition_value(text: str, name: str) -> float:
    value = parse_exposition(text).value(name)
    return float(value) if value is not None else 0.0


def service_mix(run: Run) -> Dict[str, float]:
    """A daemon with a warm store, driven by two closed-loop clients with a
    seeded Zipf mix of store hits plus fresh-clock compiles."""
    args = run.args
    cache = os.environ["REPRO_CACHE_DIR"]
    copy_tables(args.tables, cache)
    hot = [(d, c, None) for d in SERVICE_DESIGNS for c in SERVICE_CONFIGS]
    nominal = {d: nominal_clock(d) for d in SERVICE_DESIGNS}

    started = now()
    daemon = Daemon(os.environ["TMPDIR"])
    try:
        client = daemon.client
        for design, config, _ in hot:
            client.submit(design, config=config, wait=True, seed=FLOW_SEED)
        run.setup_s = now() - started
        for design, config, _ in hot:  # untimed: the hot set's outputs
            result = client.load_result(client.submit(design, config=config, seed=FLOW_SEED)["digest"])
            if result is None:
                run.problem(("setup", design, config), f"{design}/{config}: no stored result")
                continue
            digest = result.result_digest()
            run.check_digest(("setup", design, config),
                             point_key(design, config, result.clock_target_mhz), digest)
            run.results[digest] = result.fmax_mhz

        records: List[Dict[str, Any]] = []
        refused_lock = threading.Lock()

        def mix(k: int) -> List[Tuple[str, str, Optional[float]]]:
            requests = [point for point, count in zip(hot, zipf_counts(len(hot)))
                        for _ in range(count)]
            for design, config, _ in hot:
                for factor in CLOCK_FACTORS:
                    requests.append((design, config, round(nominal[design] * factor, 1)))
            random.Random(f"perfbench/service-mix/{args.seed}/{k}").shuffle(requests)
            return requests

        def request(k: int, index: int, point) -> Dict[str, Any]:
            design, config, clock = point
            rec: Dict[str, Any] = {"pass": k, "index": index, "design": design,
                                   "config": config, "clock": clock}
            t0 = now()
            try:
                job = client.submit(design, config=config, clock_mhz=clock,
                                    wait=True, seed=FLOW_SEED)
                t1 = now()
                result = client.load_result(job["digest"])
                t2 = now()
            except ServiceBusyError:
                rec["error"] = "refused"
                with refused_lock:
                    run.refused += 1
                return rec
            except ServiceError as exc:
                rec["error"] = str(exc)
                return rec
            rec.update(start=t0, submit_s=t1 - t0, load_s=t2 - t1, latency_s=t2 - t0,
                       submitted_as=job.get("submitted_as"), digest=job["digest"],
                       journal=job.get("journal"))
            if result is None:
                rec["error"] = "result missing from the store"
                return rec
            # Outside the latency; the result itself is not kept.
            rec.update(result_digest=result.result_digest(), fmax=result.fmax_mhz,
                       key=point_key(design, config, result.clock_target_mhz))
            if run.trace and job.get("submitted_as") == "queued":
                rec["trace"] = client.get_trace(job["digest"])
            return rec

        def run_pass(k: int) -> float:
            requests = mix(k)
            cursor = iter(range(len(requests)))
            lock = threading.Lock()
            done: List[Dict[str, Any]] = []

            def loop() -> None:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    rec = request(k, index, requests[index])
                    with lock:
                        done.append(rec)

            threads = [threading.Thread(target=loop) for _ in range(CLIENT_THREADS)]
            started = now()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            wall = now() - started
            if any(thread.is_alive() for thread in threads):
                raise RuntimeError("service-mix client threads did not finish")
            run.attempted += len(requests)
            for rec in sorted(done, key=lambda r: r["index"]):
                op = (k, rec["index"])
                if "error" in rec:
                    run.problem(op, f"{rec['design']}/{rec['config']}: {rec['error']}")
                    continue
                run.latencies.append(rec["latency_s"])
                run.check_digest(op, rec["key"], rec["result_digest"])
                if k == 0:
                    run.results[rec["result_digest"]] = rec["fmax"]
                records.append(rec)
            return wall

        if run.trace:
            before = client.metrics()
            run.passes(run_pass, 1)  # a second pass would find its compiles stored
            after = client.metrics()
            metrics = service_layers(run, client, records, before, after)
            # Overhead probe: store hits are idempotent, so alternate them.
            def hit(i: int) -> None:
                design, config, _ = hot[i % len(hot)]
                with obs.span("bench.request", design=design, config=config):
                    request(-1, i, hot[i % len(hot)])

            overhead(metrics, *alternate(hit, 2 * len(hot)))
            return metrics
        run.passes(run_pass, 1)
        run.disk_mb = dir_mb(cache)
    finally:
        daemon.stop()
    run.peak_rss_mb = rss_mb(resource.RUSAGE_CHILDREN)  # the daemon and its workers
    return run.end_to_end()


def service_layers(run: Run, client: ServiceClient, records, before: str, after: str) -> Dict[str, float]:
    """Per-layer service numbers from the client's timings, the daemon's
    ``/metrics`` deltas and the per-request ``/trace/<digest>`` documents."""
    served = {"store": 0, "compile": 0, "coalesced": 0}
    as_key = {"store": "store", "queued": "compile", "coalesced": "coalesced"}
    for rec in records:
        served[as_key.get(rec.get("submitted_as"), "compile")] += 1
    hits = [r["submit_s"] for r in records if r.get("submitted_as") == "store"]
    compiles = [r for r in records if r.get("submitted_as") == "queued"]
    worker_flows: List[obs.Span] = []
    for rec in compiles:
        for snapshot in (rec.get("trace") or {}).get("worker_spans") or ():
            span = obs.rebuild_span(snapshot)
            if span is not None and span.name == obs.FLOW_SPAN:
                worker_flows.append(span)
    metrics = layers.layer_metrics(
        [], [rec.get("journal") for rec in compiles], extra_flows=worker_flows
    )

    # The worker's result-store write is not spanned inside the program;
    # time the same call on the same results from here.
    put_s, sizes = [], []
    scratch = ResultStore(root=os.path.join(os.environ["TMPDIR"], "put-probe"))
    for rec in compiles[:5]:
        result = client.load_result(rec["digest"])
        request = FlowRequest.make(rec["design"], config=rec["config"],
                                   clock_mhz=rec["clock"], seed=FLOW_SEED)
        started = now()
        scratch.put(request, result)
        put_s.append(now() - started)
    for digest in sorted({r["digest"] for r in records})[:10]:
        payload = client.get_result_bytes(digest)
        if payload is not None:
            sizes.append(len(payload))

    def delta(name: str) -> float:
        return exposition_value(after, name) - exposition_value(before, name)

    waits = delta("repro_service_queue_wait_s_count")
    metrics.update({
        "service.requests": len(records),
        "service.submit_s.hit": median(hits),
        "service.submit_s.compile": median([r["submit_s"] for r in compiles]),
        "service.queue_wait_s": layers.ratio(delta("repro_service_queue_wait_s_sum"), waits),
        "service.worker_s": median([f.duration_ms / 1e3 for f in worker_flows]),
        "service.store.put_s": median(put_s),
        "service.result.bytes": median(sizes),
        "service.result.load_s": median([r["load_s"] for r in records]),
        "service.served_from.store": served["store"],
        "service.served_from.compile": served["compile"],
        "service.served_from.coalesced": served["coalesced"],
        "service.refused": run.refused,
        "service.retries": delta("repro_service_retries_total"),
    })
    for rec in records:
        if run.tracer is not None and "start" in rec:
            span = obs.Span(
                name="bench.request",
                attrs={"design": rec["design"], "config": rec["config"],
                       "clock": rec["clock"], "submitted_as": rec.get("submitted_as")},
                start_s=rec["start"] - records[0]["start"],
                end_s=rec["start"] - records[0]["start"] + rec["latency_s"],
            )
            run.tracer.roots.append(span)
    return metrics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
WORKLOADS = {
    "cold-compile": cold_compile,
    "warm-explore": warm_explore,
    "service-mix": service_mix,
}

#: Per-layer metrics a workload does not touch read 0: the layer is
#: bypassed, which is the prediction for that workload.
PER_LAYER_ZEROS = (
    "dse.enumerated", "dse.compiled", "dse.compile_ratio", "dse.search_s",
    "service.requests", "service.submit_s.hit", "service.submit_s.compile",
    "service.queue_wait_s", "service.worker_s", "service.store.put_s",
    "service.result.bytes", "service.result.load_s", "service.served_from.store",
    "service.served_from.compile", "service.served_from.coalesced",
    "service.refused", "service.retries", "delay.characterize.self_s",
)


def cmd_run(args) -> int:
    run = Run(args)
    metrics = WORKLOADS[args.workload](run)
    if run.trace:
        metrics = {**{name: 0 for name in PER_LAYER_ZEROS}, **metrics}
        metrics.update(characterize_record(args.tables))
        os.makedirs(args.trace_dir, exist_ok=True)
        stem = os.path.join(args.trace_dir, f"{args.workload}-seed{args.seed}")
        obs.write_chrome_trace(stem + ".trace.json", run.tracer)
        with open(stem + ".layers.json", "w") as handle:
            json.dump({"metrics": metrics, "rows": run.rows}, handle, indent=1, sort_keys=True)
        print_layers(metrics, run.rows)
        print(f"trace: {stem}.trace.json (Chrome trace_event), {stem}.layers.json")
    else:
        print(f"latency samples: {len(run.latencies)} operations over "
              f"{len(run.pass_walls)} pass(es)")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(run.pass_walls),
        "correct": not run.bad_ops,
        "attempted": max(run.attempted, 1),
        "failed": len(run.bad_ops),
        "problems": run.problems[:20],
        "latency_samples": len(run.latencies),
        "metrics": metrics,
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle)
    return 0


def print_layers(metrics: Dict[str, float], rows: List[Dict[str, Any]]) -> None:
    print("per-layer (self time over the timed phase; counts; ratios with their bases)")
    for name in sorted(metrics):
        print(f"  {name:40s} {metrics[name]:>14.6g}")
    if rows:
        stages = ("pragmas", "scheduling", "rtl-gen", "placement", "replication", "retiming", "timing")
        print("  " + f"{'design':18s} {'config':24s} {'compile_s':>9s} {'fmax':>7s} {'cells':>7s} "
              + " ".join(f"{s[:9]:>9s}" for s in stages))
        for row in rows:
            print("  " + f"{row['design']:18s} {row['config']:24s} {row['latency_s']:9.3f} "
                  f"{row['fmax_mhz']:7.1f} {row['cells']:7d} "
                  + " ".join(f"{row['stages_s'].get(s, 0.0):9.3f}" for s in stages))


def cmd_build_tables(args) -> int:
    seconds = {}
    for device in DEVICES:
        started = now()
        resolve_calibration(device, seed=FLOW_SEED, smooth_passes=Flow.SMOOTH_PASSES)
        seconds[device] = now() - started
        print(f"characterized {device} in {seconds[device]:.1f} s", flush=True)
    with open(os.path.join(args.out, "characterize.json"), "w") as handle:
        json.dump(seconds, handle, indent=1, sort_keys=True)
    return 0


def cmd_pin(args) -> int:
    copy_tables(args.tables, os.environ["REPRO_CACHE_DIR"])
    flow = Flow(seed=FLOW_SEED)
    points = {}
    todo = [(d, c, None) for d, c in cold_points()] + service_grid()
    for design, config, clock in todo:
        result = flow.run(build_design(design), CONFIG_LABELS[config], clock_mhz=clock)
        key = point_key(design, config, result.clock_target_mhz)
        points[key] = {"result_digest": result.result_digest(), "fmax_mhz": result.fmax_mhz}
        if clock is None:  # the cold points
            stages = {e["stage"]: e["digest"] for e in result.journal}
            points[key]["rtl_problems"] = len(rtl_problems({
                "key": key, "stage_root": os.path.join(os.environ["REPRO_CACHE_DIR"], "stages"),
                "scheduling": stages["scheduling"], "rtl-gen": stages["rtl-gen"],
            }))
        print(f"pinned {key} fmax={result.fmax_mhz:.1f} {points[key]}", flush=True)
    doc = {"schema": "perfbench-expected/1", "flow_seed": FLOW_SEED, "points": points}
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_run.add_argument("--tables", required=True)
    p_run.add_argument("--trace-dir", required=True)
    p_run.add_argument("--out", required=True)
    p_tables = sub.add_parser("build-tables")
    p_tables.add_argument("--out", required=True)
    p_pin = sub.add_parser("pin")
    p_pin.add_argument("--tables", required=True)
    p_pin.add_argument("--out", required=True)
    args = parser.parse_args()
    return {"run": cmd_run, "build-tables": cmd_build_tables, "pin": cmd_pin}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
