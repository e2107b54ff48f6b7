"""Every committed `BENCH_<pr>.json` parses, and its perfbench result lines
use only the workloads, metric names and units that `BENCHMARK.json`
declares."""

import json
import numbers
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"]
             for metric in spec["end_to_end"] + spec["per_layer"]}
    return {workload["name"] for workload in spec["workloads"]}, units


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_bench_file_uses_declared_metrics(path, declared):
    workloads, units = declared
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["runs"]
    for run in record["runs"]:
        assert run["workload"] in workloads
        assert run["side"] in ("parent", "change")
        assert run["trace"] in (0, 1)
        metrics = run["result"]["metrics"]
        assert metrics
        for name, metric in metrics.items():
            assert units.get(name) == metric["unit"], (run["workload"], name)
            assert metric["value"] is None \
                or isinstance(metric["value"], numbers.Real)
