"""Self-test of the benchmark harness.

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/dtxbench -q``
(tier-1 collection is pinned to ``tests/`` and does not include it).
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import repro.core.site
import repro.xml.serializer
from repro.xml.builder import E, doc

from . import suite
from .measure import BenchmarkFailure, check_cluster, run
from .metrics import END_TO_END, PER_LAYER, manifest, percentile, quartiles
from .spans import SpanRecorder, aggregate, wrapped_leftovers
from .workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_is_duration_minus_children():
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("c", 20, 30, 1),
        ("b", 50, 60, 0),
        ("a", 200, 230, -1),
    ]
    assert aggregate(spans) == {"a": [2, 60 + 30], "b": [2, 20 + 10], "c": [1, 10]}
    # Spans before `since` still take their time out of their parents.
    assert aggregate(spans, since=3) == {"b": [1, 10], "a": [1, 30]}
    assert sum(self_ns for _, self_ns in aggregate(spans).values()) == 100 + 30


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.50) == 50
    assert percentile(values, 0.95) == 95
    assert percentile(values, 0.99) == 99
    assert percentile([7.0], 0.99) == 7.0
    assert percentile([1, 2, 3], 0.5) == 2
    assert percentile([], 0.95) == 0.0
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)


def test_wrappers_install_and_restore_without_leaking():
    original = repro.xml.serializer.serialize_document
    assert wrapped_leftovers() == []
    small = doc("d", E("r", E("x", text="1")))
    with SpanRecorder() as recorder:
        # site.py imported the function by name: its global is rebound too.
        assert repro.core.site.serialize_document is not original
        assert repro.core.site.serialize_document.__dtxbench_span__ == "xml.serialize"
        text = repro.core.site.serialize_document(small)
        small.clone()
    assert text == original(small)
    assert [span[0] for span in recorder.spans] == ["xml.serialize", "xml.clone"]
    assert recorder.units == {"xml.serialize": len(text)}
    assert repro.core.site.serialize_document is original
    assert repro.xml.serializer.serialize_document is original
    assert wrapped_leftovers() == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_emits_exactly_the_declared_metrics(name, tmp_path):
    for trace, declared in ((False, END_TO_END), (True, PER_LAYER)):
        result, info = run(
            WORKLOADS[name], seed=3, seconds=1, trace=trace, quick=True, trace_out=tmp_path
        )
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1 and info["quick"] is True
        assert list(result["metrics"]) == [m.name for m in declared]
        for metric in declared:
            cell = result["metrics"][metric.name]
            assert cell["unit"] == metric.unit
            assert isinstance(cell["value"], (int, float))
    assert all(result["metrics"][m.name]["value"] >= 0 for m in PER_LAYER)
    phases = sum(v["value"] for k, v in result["metrics"].items() if k.startswith("simphase."))
    assert phases == pytest.approx(1.0, abs=1e-6)
    hit_rate = result["metrics"]["views.hit_rate"]["value"]
    assert (hit_rate > 0.9) if name == "regimes" else (hit_rate == 0)
    trace_file = tmp_path / f"{name}.trace.json"
    assert json.loads(trace_file.read_text())["traceEvents"]
    assert wrapped_leftovers() == []


def test_gate_rejects_a_diverged_replica():
    cluster = WORKLOADS["contended"].build(seed=5, tx_per_client=1)
    result = cluster.run()
    expected = len(result.records)
    assert len(check_cluster(cluster, result, expected)) == 64
    with pytest.raises(BenchmarkFailure, match="submitted"):
        check_cluster(cluster, result, expected + 1)
    cluster.document_at("s2", "hot").root.children[0].text = "tampered"
    with pytest.raises(BenchmarkFailure, match="diverged"):
        check_cluster(cluster, result, expected)


def test_benchmark_json_is_the_declared_manifest_and_within_the_contract():
    declared = manifest()
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == declared
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit_re = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(name_re.fullmatch(n) for n in names)
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in (*declared["end_to_end"], *declared["per_layer"]):
        assert unit_re.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def _result_file(path: Path, wall: list, p95: list) -> Path:
    def cell(values):
        q1, median, q3 = quartiles(values)
        return {"median": median, "q1": q1, "q3": q3, "values": values}

    cells = {m.name: cell([1.0] * 5) for m in END_TO_END}
    cells["cal_tx_per_s"] = cell(wall)
    cells["sim_resp_p95_ms"] = cell(p95)
    report = {"seed": 1, "seconds": 15, "quick": False, "rounds": 5,
              "workloads": {"mixed": {"end_to_end": cells}}}
    path.write_text(json.dumps(report))
    return path


def test_agree_verdicts(tmp_path, capsys):
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    base = _result_file(tmp_path / "a.json", steady, [40.0] * 5)
    assert suite.agree(base, _result_file(tmp_path / "b.json", [v * 1.05 for v in steady],
                                          [40.0] * 5)) == 0
    assert "differs" not in capsys.readouterr().out
    # Medians further apart than the bound.
    assert suite.agree(base, _result_file(tmp_path / "c.json", [v * 1.4 for v in steady],
                                          [40.0] * 5)) == 1
    # A simulated metric must be identical, however small the difference.
    assert suite.agree(base, _result_file(tmp_path / "d.json", steady, [40.0001] * 5)) == 1
    # Spread wider than the bound: neither same nor differs.
    capsys.readouterr()
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert suite.agree(base, _result_file(tmp_path / "e.json", noisy, [40.0] * 5)) == 0
    assert "unresolved" in capsys.readouterr().out


def test_the_committed_baseline_files_agree(capsys):
    baseline = Path(__file__).with_name("baseline")
    assert suite.agree(baseline / "a.json", baseline / "b.json") == 0
    assert "differs" not in capsys.readouterr().out
