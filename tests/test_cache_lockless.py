"""Lockless fallback of the calibration cache on fcntl-less platforms."""

from __future__ import annotations

import warnings

import pytest

from repro import cachedir
from repro.delay import cache


@pytest.fixture()
def _no_fcntl(monkeypatch):
    monkeypatch.setattr(cachedir, "fcntl", None)
    monkeypatch.setattr(cache, "_LOCKLESS_WARNED", False)


class TestLocklessFallback:
    def test_lock_degrades_to_noop_with_one_warning(self, tmp_path, _no_fcntl):
        path = str(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning, match="lockless"):
            with cache.calibration_lock(path):
                pass
        # No .lock file materializes in lockless mode.
        assert not (tmp_path / "cal.json.lock").exists()

    def test_warning_fires_once_per_process(self, tmp_path, _no_fcntl):
        path = str(tmp_path / "cal.json")
        with pytest.warns(RuntimeWarning):
            with cache.calibration_lock(path):
                pass
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with cache.calibration_lock(path):
                pass
            with cache.calibration_lock(path):
                pass
        assert caught == []

    def test_locked_path_untouched_when_fcntl_present(self, tmp_path):
        if cachedir.fcntl is None:  # pragma: no cover - non-POSIX host
            pytest.skip("platform has no fcntl")
        path = str(tmp_path / "cal.json")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with cache.calibration_lock(path):
                pass
        assert caught == []
        assert (tmp_path / "cal.json.lock").exists()
