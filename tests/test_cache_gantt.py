"""Tests for calibration persistence and Gantt rendering."""

import json
import os

import pytest

import repro.delay.cache as cache_mod
from repro.delay.cache import (
    CalibrationProvenance,
    calibration_lock,
    default_cache_dir,
    default_calibration_path,
    get_or_build_calibration,
    load_calibration,
    read_provenance,
    resolve_calibration,
    save_calibration,
)
from repro.delay.calibrated import CalibrationTable
from repro.delay.hls_model import HlsDelayModel
from repro.errors import ReproError
from repro.ir.builder import DFGBuilder
from repro.ir.types import i32
from repro.scheduling.chaining import ChainingScheduler
from repro.scheduling.gantt import render_gantt


class TestCalibrationCache:
    def table(self):
        t = CalibrationTable()
        t.add("add_i32", 1, 0.78)
        t.add("add_i32", 64, 2.1)
        return t

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1")
        back = load_calibration(str(path))
        assert back.to_dict() == self.table().to_dict()

    def test_device_check(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1")
        load_calibration(str(path), device="aws-f1")
        with pytest.raises(ReproError):
            load_calibration(str(path), device="zc706")

    def test_version_check(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"version": 99, "curves": {}}')
        with pytest.raises(ReproError):
            load_calibration(str(path))

    def test_get_or_build_loads_existing(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1")
        table = get_or_build_calibration(str(path), device="aws-f1")
        assert table.lookup("add_i32", 64) == pytest.approx(2.1)

    def test_seed_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1", seed=2020)
        load_calibration(str(path), seed=2020)
        with pytest.raises(ReproError, match="seed"):
            load_calibration(str(path), seed=7)

    def test_smooth_passes_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1", smooth_passes=1)
        with pytest.raises(ReproError, match="smooth_passes"):
            load_calibration(str(path), smooth_passes=3)

    def test_missing_provenance_rejected(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"version": 1, "curves": {}}')
        with pytest.raises(ReproError, match="provenance"):
            load_calibration(str(path))

    def test_read_provenance(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(
            self.table(), str(path), device="zc706", seed=11, smooth_passes=2
        )
        assert read_provenance(str(path)) == CalibrationProvenance(
            device="zc706", seed=11, smooth_passes=2
        )

    def test_save_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "cal.json"
        save_calibration(self.table(), str(path), device="aws-f1")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cal.json"]
        assert json.loads(path.read_text())["device"] == "aws-f1"


class TestResolveCalibration:
    """resolve_calibration: memory -> disk -> build, with provenance."""

    @pytest.fixture(autouse=True)
    def _tiny_build(self, monkeypatch, tmp_path):
        """Stub the 14s characterization with a tiny deterministic table,
        and give every test a private cache dir + memo."""

        def fake_build(device, seed=2020, smooth_passes=1):
            table = CalibrationTable()
            table.add("add_i32", 1, 0.5 + seed * 1e-6)
            return table

        monkeypatch.setattr(cache_mod, "build_default_calibration", fake_build)
        monkeypatch.setattr(cache_mod, "_MEMORY", {})
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_build_then_disk_then_memory(self):
        table1, source1 = resolve_calibration("aws-f1")
        assert source1 == "built"
        _table2, source2 = resolve_calibration("aws-f1")
        assert source2 == "memory"
        cache_mod._MEMORY.clear()  # new process, warm disk
        table3, source3 = resolve_calibration("aws-f1")
        assert source3 == "disk"
        assert table3.to_dict() == table1.to_dict()

    def test_auto_path_encodes_provenance(self):
        resolve_calibration("aws-f1", seed=7, smooth_passes=2)
        path = default_calibration_path("aws-f1", seed=7, smooth_passes=2)
        assert os.path.exists(path)
        assert read_provenance(path) == CalibrationProvenance(
            device="aws-f1", seed=7, smooth_passes=2
        )

    def test_distinct_seeds_get_distinct_files(self):
        resolve_calibration("aws-f1", seed=1)
        resolve_calibration("aws-f1", seed=2)
        assert default_calibration_path("aws-f1", seed=1) != \
            default_calibration_path("aws-f1", seed=2)
        assert os.path.exists(default_calibration_path("aws-f1", seed=1))
        assert os.path.exists(default_calibration_path("aws-f1", seed=2))

    def test_explicit_path_builds_and_reuses(self, tmp_path):
        path = str(tmp_path / "explicit.json")
        _table, source = resolve_calibration("aws-f1", path=path)
        assert source == "built" and os.path.exists(path)
        cache_mod._MEMORY.clear()
        _table, source = resolve_calibration("aws-f1", path=path)
        assert source == "disk"

    def test_explicit_path_provenance_mismatch_raises(self, tmp_path):
        path = str(tmp_path / "explicit.json")
        resolve_calibration("aws-f1", seed=1, path=path)
        cache_mod._MEMORY.clear()
        with pytest.raises(ReproError, match="seed"):
            resolve_calibration("aws-f1", seed=2, path=path)

    def test_cache_dir_env_override(self):
        assert default_cache_dir() == os.environ["REPRO_CACHE_DIR"]

    def test_lock_is_exclusive_and_reentrant_across_processes(self, tmp_path):
        """The lock must actually serialize two processes racing to build."""
        import multiprocessing

        path = str(tmp_path / "locked.json")
        ctx = multiprocessing.get_context("fork")
        started = ctx.Event()
        release = ctx.Event()

        def hold_lock():
            with calibration_lock(path):
                started.set()
                release.wait(timeout=30)

        holder = ctx.Process(target=hold_lock)
        holder.start()
        assert started.wait(timeout=10)
        acquired = []

        def try_lock():
            with calibration_lock(path):
                acquired.append(True)

        import threading

        contender = threading.Thread(target=try_lock)
        contender.start()
        contender.join(timeout=0.5)
        assert contender.is_alive() and not acquired  # blocked by holder
        release.set()
        contender.join(timeout=10)
        assert acquired == [True]
        holder.join(timeout=10)


class TestGantt:
    def scheduled(self):
        b = DFGBuilder("g")
        x = b.input("x", i32)
        v = b.add(x, x, name="first")
        for i in range(8):
            v = b.sub(v, x, name=f"s{i}")
        return ChainingScheduler(HlsDelayModel(), 2.0).schedule(b.build())

    def test_renders_all_cycles(self):
        schedule = self.scheduled()
        text = render_gantt(schedule)
        for c in range(schedule.depth):
            assert f"c{c}" in text

    def test_bars_present(self):
        assert "#" in render_gantt(self.scheduled())

    def test_row_truncation(self):
        text = render_gantt(self.scheduled(), max_ops=3)
        assert "more ops not shown" in text

    def test_cycle_limit(self):
        text = render_gantt(self.scheduled(), only_cycles=1)
        assert "c1" not in text.splitlines()[0]

    def test_footer_stats(self):
        text = render_gantt(self.scheduled())
        assert "depth=" in text and "model=hls" in text
