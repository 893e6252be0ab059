"""The protocol bench harness: structure, model agreement, regression gate."""

import copy

import numpy as np

from repro.bench.protocols import (
    DEFAULT_TOLERANCE,
    check_serve_snapshot,
    check_snapshot,
    material_nbytes,
    render_report,
    run_bench,
)
from repro.mpc.costs import drelu_label_bytes, relu_label_bytes
from repro.mpc.dealer import TrustedDealer


def small_bench():
    return run_bench(elements=128, repeats=1, serve_requests=0)


class TestHarness:
    def test_report_structure_and_model_agreement(self):
        report = small_bench()
        assert report["boolean_words_packed"] is True
        assert report["calibration_s"] > 0
        for op in ("drelu", "relu", "maxpool", "linear"):
            entry = report["ops"][op]
            assert entry["online_s"] > 0
            assert entry["online_bytes"] > 0
            assert entry["rounds"] > 0
        # The measured per-op bytes equal the packed-circuit cost model.
        assert report["ops"]["drelu"]["online_bytes"] == sum(
            drelu_label_bytes(128).values()
        )
        assert report["ops"]["relu"]["online_bytes"] == sum(
            relu_label_bytes(128).values()
        )
        assert report["offline"]["bit_triple_bytes_per_element"] == 336
        assert "serve" not in report  # serve_requests=0 skips it

    def test_material_nbytes_counts_all_halves(self):
        triple = TrustedDealer(seed=0).beaver_triples((16,))
        assert material_nbytes(triple) == 3 * 2 * 16 * 8

    def test_render_report_is_printable(self):
        text = render_report(small_bench())
        assert "drelu" in text and "bit-triples" in text


class TestRegressionGate:
    def test_identical_snapshot_passes(self):
        report = small_bench()
        assert check_snapshot(report, copy.deepcopy(report)) == []

    def test_latency_regression_fails(self):
        report = small_bench()
        fresh = copy.deepcopy(report)
        snapshot = copy.deepcopy(report)
        # Synthetic wall times well above the anti-jitter slack: a 2x
        # regression at equal machine speed must fail the 10% gate.
        fresh["ops"]["drelu"]["online_s"] = 1.0
        snapshot["ops"]["drelu"]["online_s"] = 0.5
        failures = check_snapshot(fresh, snapshot, tolerance=DEFAULT_TOLERANCE)
        assert any("regressed" in failure for failure in failures)

    def test_offline_regression_fails(self):
        """An inflated serve offline_s fails the per-bundle budget; a
        longer run at the same per-bundle cost passes it."""
        report = small_bench()
        report["serve"] = {"requests": 2, "offline_s": 0.05}
        snapshot = copy.deepcopy(report)
        fresh = copy.deepcopy(report)
        fresh["serve"]["offline_s"] = 0.2
        failures = check_snapshot(fresh, snapshot, tolerance=DEFAULT_TOLERANCE)
        assert any(
            "offline generation" in failure and "regressed" in failure
            for failure in failures
        )
        fresh["serve"] = {"requests": 8, "offline_s": 0.2}
        assert check_snapshot(fresh, snapshot) == []

    def test_byte_drift_fails(self):
        report = small_bench()
        snapshot = copy.deepcopy(report)
        snapshot["ops"]["drelu"]["online_bytes"] += 1
        failures = check_snapshot(report, snapshot)
        assert any("online bytes drifted" in failure for failure in failures)

    def test_representation_mismatch_short_circuits(self):
        report = small_bench()
        snapshot = copy.deepcopy(report)
        snapshot["boolean_words_packed"] = False
        failures = check_snapshot(report, snapshot)
        assert len(failures) == 1 and "representation mismatch" in failures[0]

    def test_machine_normalisation_scales_the_budget(self):
        """A snapshot from a 10x faster machine must not fail the check
        when the fresh run is proportionally slower."""
        report = small_bench()
        snapshot = copy.deepcopy(report)
        snapshot["ops"]["drelu"]["online_s"] = report["ops"]["drelu"]["online_s"] / 10
        snapshot["calibration_s"] = report["calibration_s"] / 10
        assert check_snapshot(report, snapshot) == []


class TestCommittedSnapshots:
    """The repo's committed snapshots must reflect the packed engine."""

    def test_committed_snapshot_matches_current_representation(self):
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        with open(root / "benchmarks" / "BENCH_protocols.json") as handle:
            committed = json.load(handle)
        assert committed["boolean_words_packed"] is True
        with open(root / "benchmarks" / "BENCH_protocols.before.json") as handle:
            before = json.load(handle)
        assert before["boolean_words_packed"] is False
        # The acceptance numbers: >= 4x DReLU online wall time and >= 4x
        # offline bit-triple material versus the byte-per-bit baseline
        # (both snapshots were recorded on the same machine).
        assert (
            before["ops"]["drelu"]["online_s"]
            >= 4 * committed["ops"]["drelu"]["online_s"]
        )
        assert (
            before["offline"]["bit_triple_bytes_per_element"]
            >= 4 * committed["offline"]["bit_triple_bytes_per_element"]
        )


def _serve_report():
    """A synthetic placement report shaped like bench_serve_placements."""
    sha = "ab" * 32
    return {
        "schema": 1,
        "calibration_s": 1.0,
        "logits_identical": True,
        "logits_sha256": sha,
        "placements": {
            "in-process": {"ms_per_inference": 5.0, "logits_sha256": sha},
            "socket-loopback": {
                "ms_per_inference": 30.0,
                "logits_sha256": sha,
                "bytes_match": True,
                "shm_active": False,
            },
            "shared-memory": {
                "ms_per_inference": 25.0,
                "logits_sha256": sha,
                "bytes_match": True,
                "shm_active": True,
            },
        },
    }


class TestServeGate:
    def test_identical_report_passes(self):
        report = _serve_report()
        assert check_serve_snapshot(report, copy.deepcopy(report)) == []

    def test_logits_disagreement_fails(self):
        report = _serve_report()
        report["logits_identical"] = False
        failures = check_serve_snapshot(report, copy.deepcopy(_serve_report()))
        assert any("disagree on logits" in failure for failure in failures)

    def test_logits_drift_from_snapshot_fails(self):
        report = _serve_report()
        snapshot = _serve_report()
        snapshot["logits_sha256"] = "cd" * 32
        failures = check_serve_snapshot(report, snapshot)
        assert any("logits drifted" in failure for failure in failures)

    def test_byte_accounting_divergence_fails(self):
        report = _serve_report()
        report["placements"]["shared-memory"]["bytes_match"] = False
        failures = check_serve_snapshot(report, _serve_report())
        assert any("diverged from Channel accounting" in f for f in failures)

    def test_shm_fallback_fails(self):
        report = _serve_report()
        report["placements"]["shared-memory"]["shm_active"] = False
        failures = check_serve_snapshot(report, _serve_report())
        assert any("fell back to the socket" in f for f in failures)

    def test_in_process_latency_gate_is_tight(self):
        report = _serve_report()
        report["placements"]["in-process"]["ms_per_inference"] = 12.0
        failures = check_serve_snapshot(report, _serve_report())
        assert any("in-process serve latency regressed" in f for f in failures)

    def test_remote_placements_get_scheduler_slack(self):
        # +30% on a remote leg sits inside the doubled band + 10 ms floor.
        report = _serve_report()
        report["placements"]["socket-loopback"]["ms_per_inference"] = 39.0
        assert check_serve_snapshot(report, _serve_report()) == []
        report["placements"]["socket-loopback"]["ms_per_inference"] = 60.0
        failures = check_serve_snapshot(report, _serve_report())
        assert any("socket-loopback serve latency" in f for f in failures)

    def test_missing_placement_fails(self):
        report = _serve_report()
        del report["placements"]["shared-memory"]
        failures = check_serve_snapshot(report, _serve_report())
        assert any("fell back" in f or "missing" in f for f in failures)


class TestServeCheckReplaysSnapshot:
    def test_check_runs_the_snapshot_request_count(self, tmp_path, monkeypatch):
        """The logits hash covers the whole request stream: a check run
        with the CLI's default --requests must still replay the
        snapshot's length, or it reports drift on unchanged code."""
        import json
        from types import SimpleNamespace

        import repro.bench.protocols as protocols

        snapshot = dict(_serve_report(), requests=4)
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        seen = []

        def fake_placements(requests):
            seen.append(requests)
            return dict(_serve_report(), requests=requests)

        monkeypatch.setattr(protocols, "bench_serve_placements", fake_placements)
        args = SimpleNamespace(
            requests=8, json=True, output=None, check=str(path), tolerance=None
        )
        assert protocols.run_serve_from_args(args) == 0
        assert seen == [4]


class TestCommittedServeSnapshot:
    def test_committed_serve_snapshot_meets_acceptance(self):
        import json
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        with open(root / "benchmarks" / "BENCH_serve.json") as handle:
            committed = json.load(handle)
        assert committed["logits_identical"] is True
        assert committed["best_ms_per_inference"] < 9.5
        placements = committed["placements"]
        assert set(placements) == {
            "in-process", "socket-loopback", "shared-memory",
        }
        assert placements["shared-memory"]["shm_active"] is True
        for name in ("socket-loopback", "shared-memory"):
            assert placements[name]["bytes_match"] is True
