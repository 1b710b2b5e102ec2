"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main
from repro.delay.cache import save_calibration
from repro.testing import synthetic_calibration


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "genome" in out and "pattern_matching" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_design_rejected(self, capsys):
        # argparse `choices` rejects it: usage error (2) naming the designs
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "nonexistent"])
        assert excinfo.value.code == 2
        assert "matmul" in capsys.readouterr().err

    def test_unknown_config_exits_2_with_choices(self, capsys):
        assert main(["run", "matmul", "--config", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "valid configs" in err and "full" in err

    def test_empty_config_exits_2(self, capsys):
        assert main(["run", "matmul", "--config", " , "]) == 2
        assert "valid configs" in capsys.readouterr().err

    def test_fig17_experiment(self, capsys):
        assert main(["fig17"]) == 0
        out = capsys.readouterr().out
        assert "waist" in out

    def test_verilog_command(self, tmp_path, capsys):
        out_file = tmp_path / "d.v"
        assert main(["verilog", "face_detection", str(out_file), "--config", "orig"]) == 0
        assert out_file.exists()
        assert "REPRO_FF" in out_file.read_text()

    def test_diagnose_command(self, capsys):
        assert main(["diagnose", "face_detection"]) == 0
        out = capsys.readouterr().out
        assert "broadcast" in out
        assert "Critical path" in out

    def test_diagnose_runs_fix_chain_on_extra_design(self, capsys):
        # vec_stream is an extra design, and its best config is the
        # baseline: §4.1 costs it Fmax and no later step wins it back.
        assert main(["diagnose", "vec_stream"]) == 0
        out = capsys.readouterr().out
        assert "step 3:" in out
        assert out.strip().splitlines()[-1].startswith("vec_stream [orig]")

    @pytest.mark.parametrize("command", ["tune", "autotune"])
    def test_tune_is_an_unknown_command(self, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "genome"])
        assert excinfo.value.code == 2

    def test_run_verbose_prints_span_tree(self, capsys):
        assert main(["run", "vector_arith", "--config", "orig", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "Fmax=" in out
        # the --verbose view appends the observability span tree
        assert "placement" in out and "rtl-gen" in out

    def test_run_json_and_trace_out_compose(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(
            ["run", "vector_arith", "--config", "orig",
             "--json", "--trace-out", str(trace_path)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["runs"][0]["counters"]
        assert trace_path.exists()

    @pytest.mark.parametrize("flag", ["off", "on", None])
    def test_stage_cache_flag_maps_to_flow_policy(self, flag):
        from argparse import Namespace

        from repro.__main__ import _flow_for
        from repro.pipeline import StageArtifactStore

        flow = _flow_for(Namespace(seed=2020, stage_cache=flag))
        if flag == "off":
            assert flow.stage_cache is False
            assert flow._stage_store() is None
        elif flag == "on":
            assert isinstance(flow.stage_cache, StageArtifactStore)
        else:
            assert flow.stage_cache is None


class TestCliEngine:
    """--jobs and --calibration, the engine/cache flags of the CLI."""

    def test_jobs_parallel_run_json(self, capsys):
        # Two calibration-free configs fanned over two worker processes;
        # the report must keep submission order and full enrichment.
        assert main(
            ["run", "matmul", "--config", "orig,skid", "--jobs", "2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert [run["config"] for run in report["runs"]] == ["orig", "skid"]
        assert all("utilization" in run for run in report["runs"])

    def test_calibration_flag_uses_saved_table(self, tmp_path, capsys):
        path = tmp_path / "cal.json"
        save_calibration(
            synthetic_calibration(), str(path),
            device="aws-f1", seed=2020, smooth_passes=1,
        )
        assert main(
            ["run", "matmul", "--config", "full",
             "--calibration", str(path), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        (run,) = report["runs"]
        (calibration,) = [s for s in run["stages"] if s["name"] == "calibration"]
        assert calibration["attrs"]["cached"] is True
        assert calibration["attrs"]["source"] == "disk"

    def test_calibration_provenance_mismatch_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cal.json"
        save_calibration(
            synthetic_calibration(), str(path),
            device="aws-f1", seed=999, smooth_passes=1,
        )
        assert main(
            ["run", "matmul", "--config", "full", "--calibration", str(path)]
        ) == 1
        err = capsys.readouterr().err
        assert "repro: error" in err and "seed" in err


class TestCliBatchFailures:
    """Batch commands report every completed job and exit nonzero when any
    job failed (the engine's collect_errors path)."""

    @staticmethod
    def _mismatched_calibration(tmp_path) -> str:
        path = tmp_path / "cal.json"
        save_calibration(
            synthetic_calibration(), str(path),
            device="aws-f1", seed=999, smooth_passes=1,
        )
        return str(path)

    def test_run_partial_failure_keeps_good_results(self, tmp_path, capsys):
        # 'orig' is calibration-free and succeeds; 'full' needs the
        # calibration and hits the seed-mismatch error.
        path = self._mismatched_calibration(tmp_path)
        assert main(
            ["run", "matmul", "--config", "orig,full", "--calibration", path]
        ) == 1
        captured = capsys.readouterr()
        assert "Fmax=" in captured.out  # orig still reported
        assert "repro: error" in captured.err
        assert "does not match the requested provenance" in captured.err

    def test_run_partial_failure_json_report(self, tmp_path, capsys):
        path = self._mismatched_calibration(tmp_path)
        assert main(
            ["run", "matmul", "--config", "orig,full",
             "--calibration", path, "--json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        # The aborted run leaves a bare span record; only 'orig' completed
        # with full result enrichment.
        enriched = [r["config"] for r in report["runs"] if "utilization" in r]
        assert enriched == ["orig"]
        (failure,) = report["failures"]
        assert failure["tag"] == "full"
        assert failure["error_type"] == "ReproError"

    def test_run_parallel_partial_failure(self, tmp_path, capsys):
        path = self._mismatched_calibration(tmp_path)
        assert main(
            ["run", "matmul", "--config", "orig,full",
             "--calibration", path, "--jobs", "2", "--json"]
        ) == 1
        report = json.loads(capsys.readouterr().out)
        enriched = [r["config"] for r in report["runs"] if "utilization" in r]
        assert enriched == ["orig"]
        assert len(report["failures"]) == 1

    def test_all_propagates_experiment_failure(self, monkeypatch, capsys):
        from repro.errors import ReproError
        from repro.experiments import summary as summary_mod

        def ok_runner(engine=None):
            return "fine"

        def bad_runner(engine=None):
            raise ReproError("synthetic experiment breakage")

        monkeypatch.setattr(
            summary_mod, "EXPERIMENTS",
            (
                ("good_exp", ok_runner, lambda r: f"rendered {r}"),
                ("bad_exp", bad_runner, lambda r: r),
            ),
        )
        assert main(["all"]) == 1
        captured = capsys.readouterr()
        assert "rendered fine" in captured.out  # good section survives
        assert "FAILED" in captured.out and "bad_exp" in captured.out
        assert "synthetic experiment breakage" in captured.err


class TestCliService:
    """Argument wiring of serve/submit/status (live daemon paths are
    covered in test_service_http.py)."""

    def test_submit_unreachable_daemon_exits_3(self, capsys):
        # Exit 3 = "try later" (same as backpressure): the daemon being
        # down is transient, not a caller error.
        assert main(["submit", "matmul", "--port", "1"]) == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_status_unreachable_daemon_exits_3(self, capsys):
        assert main(["status", "--port", "1"]) == 3
        assert "cannot reach" in capsys.readouterr().err

    def test_submit_rejects_unknown_config(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "matmul", "--config", "bogus"])
        assert excinfo.value.code == 2

    def test_submit_backpressure_exits_3(self, tmp_path, capsys):
        from repro.service import ResultStore, serve_in_thread

        with serve_in_thread(
            store=ResultStore(str(tmp_path / "results")),
            quarantine_dir=str(tmp_path / "quarantine"),
            workers=1,
            queue_limit=0,
        ) as server:
            assert main(
                ["submit", "matmul", "--port", str(server.port)]
            ) == 3
            assert "busy" in capsys.readouterr().err

    def test_submit_and_status_against_live_daemon(self, tmp_path, capsys):
        from repro.service import ResultStore, serve_in_thread

        with serve_in_thread(
            store=ResultStore(str(tmp_path / "results")),
            quarantine_dir=str(tmp_path / "quarantine"),
            workers=1,
        ) as server:
            port = str(server.port)
            assert main(
                ["submit", "matmul", "--config", "orig", "--wait",
                 "--json", "--port", port]
            ) == 0
            record = json.loads(capsys.readouterr().out)
            assert record["state"] == "done"
            assert record["served_from"] == "compile"

            assert main(["status", "--port", port]) == 0
            out = capsys.readouterr().out
            assert "compiles       1" in out
            assert "uptime" in out
            assert record["id"] in out
            # the trace id column lets `repro trace --request` follow up
            assert record["trace_id"] in out

            assert main(["status", "--json", "--port", port]) == 0
            snapshot = json.loads(capsys.readouterr().out)
            assert snapshot["metrics"]["counters"]["service.compiles"] == 1

            assert main(["status", record["id"], "--port", port]) == 0
            fetched = json.loads(capsys.readouterr().out)
            assert fetched["digest"] == record["digest"]


class TestCliTraceRequest:
    """``repro trace --request`` takes a digest or a unique prefix of one,
    such as the 12 characters ``repro submit`` prints."""

    FIRST = "abc123" + "0" * 58
    SECOND = "abc124" + "1" * 58

    @pytest.fixture()
    def traces(self, tmp_path, monkeypatch):
        from repro.service import TraceStore

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        store = TraceStore()
        for index, digest in enumerate((self.FIRST, self.SECOND)):
            store.put(digest, {
                "schema": "repro-trace/1", "trace_id": f"trace-{index}",
                "job_id": f"job-{index}", "state": "done", "attempts": 1,
                "served_from": "compile", "worker_spans": [],
            })
        return store

    def test_unique_prefix_resolves(self, traces, capsys):
        assert main(["trace", "--request", self.FIRST[:12]]) == 0
        out = capsys.readouterr().out
        assert "trace trace-0" in out and f"request {self.FIRST[:12]}" in out

    def test_full_digest_still_works(self, traces, capsys):
        assert main(["trace", "--request", self.SECOND]) == 0
        assert "trace trace-1" in capsys.readouterr().out

    def test_ambiguous_prefix_exits_1_with_the_matches(self, traces, capsys):
        assert main(["trace", "--request", "abc12"]) == 1
        err = capsys.readouterr().err
        assert "ambiguous" in err
        assert self.FIRST in err and self.SECOND in err

    def test_unknown_prefix_exits_1(self, traces, capsys):
        assert main(["trace", "--request", "fff"]) == 1
        assert "no stored trace" in capsys.readouterr().err
