"""Self-test of the benchmark: the smoke mode emits every metric, and the checker fails bad output.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
from checks import check_outputs  # noqa: E402
from workloads import SMOKE_N, WORKLOADS, make_instance  # noqa: E402

from satsearch.cli import main as cli_main  # noqa: E402

# layer metrics that count work; each must have samples on the workloads where it runs
RUNS_ON = {
    "cnf.build_unsat_table_s": {"sweep-n18", "histogram-n22", "report-n17"},
    "statevector.search_step_us": {"sweep-n18", "report-n17"},
    "experiment.success_curve_s": {"sweep-n18", "report-n17"},
    "experiment.repeat_until_success_stats_s": {"report-n17"},
    "experiment.run_grover_baseline_s": {"report-n17"},
    "statevector.state_snapshot_s": {"report-n17"},
}


def test_benchmark_json_declares_the_emitted_metrics():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_emits_every_metric(name, trace, tmp_path):
    settings = bench.SMOKE
    result = bench.run_workload(name, 0, 0.5, trace, settings, tmp_path)
    assert result["n"] == SMOKE_N
    assert result["failed"] == 0, [r["failures"] for r in result["runs"]]
    assert result["attempted"] >= settings.min_runs + trace

    declared = bench.PER_LAYER if trace else bench.END_TO_END
    metrics = result["metrics"]
    assert list(metrics) == list(declared)
    for metric, unit in declared.items():
        assert metrics[metric]["unit"] == unit, metric
        assert isinstance(metrics[metric]["samples"], int), metric
        assert isinstance(metrics[metric]["value"], (int, float)), metric

    line = json.loads(bench.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())

    if trace:
        for metric, workloads in RUNS_ON.items():
            assert (metrics[metric]["samples"] > 0) == (name in workloads), metric
        assert metrics["cnf.enumerations"]["value"] == (2 if name == "report-n17" else 1)
        # at n = 10, argument parsing alone is a few percent of cli.main; the
        # full-size commands reach 0.95
        assert 0.8 <= metrics["trace.coverage"]["value"] <= 1.0
        if name == "report-n17":
            assert metrics["experiment.useful_iterate_ratio"]["value"] == pytest.approx(0.4, abs=0.01)
    else:
        assert metrics["ok_frac"]["value"] == 1.0
        assert metrics["wall_s"]["value"] > 0 and metrics["setup_s"]["value"] > 0


@pytest.fixture(scope="module")
def report_outputs(tmp_path_factory):
    """A real report-n17-shaped output at the smoke size, as file name -> bytes."""
    tmp = tmp_path_factory.mktemp("report")
    formula, _, _ = make_instance(SMOKE_N, 0, tmp / "inst.cnf")
    argv = WORKLOADS["report-n17"].argv(tmp / "inst.cnf", tmp)
    assert cli_main(argv) == 0
    outputs = {name: (tmp / name).read_bytes() for name in WORKLOADS["report-n17"].outputs}
    return formula, outputs


def _corrupt(outputs: dict, name: str, edit) -> dict:
    doc = json.loads(outputs[name])
    edit(doc)
    return {**outputs, name: json.dumps(doc).encode()}


def _bump_histogram(doc):
    doc["histogram"][1] += 1


def _wrong_solution(doc):
    doc["solution"] ^= 1


def _shift_curve(doc):
    q_m = doc["spectral"]["q_m"]
    doc["curve"][q_m][1] += 0.5


def _scale_snapshot(doc):
    doc["amplitudes"][0][1] *= 2.0


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("report.json", _bump_histogram, "sums to"),
        ("report.json", _wrong_solution, "violates clauses"),
        ("report.json", _shift_curve, "trials rate"),
        ("snapshot.json", _scale_snapshot, "snapshot norm"),
    ],
)
def test_checker_fails_corrupted_output(report_outputs, name, edit, message):
    formula, outputs = report_outputs
    assert check_outputs(formula, outputs) == []
    failures = check_outputs(formula, _corrupt(outputs, name, edit))
    assert any(message in f for f in failures), failures


def test_checker_flags_bytes_that_differ_between_runs(report_outputs, tmp_path):
    formula, outputs = report_outputs
    checker = bench.Checker(formula, tuple(outputs))
    records = []
    for k, doc in enumerate([outputs, outputs, {**outputs, "report.json": outputs["report.json"] + b" "}]):
        outdir = tmp_path / str(k)
        outdir.mkdir()
        for name, blob in doc.items():
            (outdir / name).write_bytes(blob)
        records.append({"exit": 0})
        checker.check(records[-1], outdir, outdir / "stderr")
    assert [r["failures"] for r in records[:2]] == [[], []]
    assert records[2]["failures"] == ["output bytes differ from the first run"]
    assert records[0]["sha256"] == records[1]["sha256"] != records[2]["sha256"]


def test_checker_fails_unparseable_output(report_outputs):
    formula, outputs = report_outputs
    failures = check_outputs(formula, {**outputs, "report.json": b"{not json"})
    assert failures and "does not parse" in failures[0]
