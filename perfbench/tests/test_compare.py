import json

from compare import compare, main, parse_runs


def _log(path, runs):
    lines = []
    for seed, clicks, latency in runs:
        inputs = {
            "workload": "hist-live",
            "seed": seed,
            "clicks_sha256": clicks,
            "index_sha256": "i",
            "heldout_sha256": "h",
            "schedule_sha256": "s",
        }
        result = {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {"latency_p50_ms": {"value": latency, "unit": "ms"}},
        }
        lines += ["env: {}", "inputs: " + json.dumps(inputs), "noise", json.dumps(result)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_same_inputs_are_compared(tmp_path):
    before = _log(tmp_path / "a.log", [(1, "c1", 1.0), (2, "c2", 1.2)])
    after = _log(tmp_path / "b.log", [(1, "c1", 1.1), (2, "c2", 1.3)])
    assert len(parse_runs(before)) == 2
    refusals, lines = compare(parse_runs(before), parse_runs(after))
    assert refusals == []
    assert any("latency_p50_ms" in line and "+9.1%" in line for line in lines)
    assert main([before, after]) == 0


def test_runs_on_different_inputs_are_refused(tmp_path):
    before = _log(tmp_path / "a.log", [(1, "c1", 1.0)])
    after = _log(tmp_path / "b.log", [(1, "changed", 1.0)])
    refusals, _ = compare(parse_runs(before), parse_runs(after))
    assert refusals == ["hist-live seed 1: clicks_sha256 differs"]
    assert main([before, after]) == 2
