"""Self-tests of ``perfbench/run.py`` (no server is started).

    python3 -m pytest perfbench/test_run.py -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer, covered_length, percentile  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_plan_is_a_function_of_the_seed(workload):
    spec = run.WORKLOADS[workload]
    first, again = run.make_plan(spec, 7, 12), run.make_plan(spec, 7, 12)
    other = run.make_plan(spec, 8, 12)
    assert first.server_seed == again.server_seed
    assert first.sessions == again.sessions
    assert np.array_equal(first.offsets, again.offsets, equal_nan=True)
    assert np.array_equal(first.images, again.images)
    assert first.rounds == again.rounds
    assert not np.array_equal(first.offsets, other.offsets, equal_nan=True)
    assert first.sessions != other.sessions
    assert first.n_open >= run.MIN_OPEN_REQUESTS
    total = first.n_open + first.n_closed
    assert len(first.images) == total
    assert len(first.sessions) == (total if spec.churn else 1)
    # Every request index appears once, in send order.
    order = [i for opened, closed in first.rounds for i in opened + closed]
    assert order == list(range(total))
    assert sum(len(opened) for opened, _ in first.rounds) == first.n_open


def test_poisson_gaps_keep_the_rate():
    rng = np.random.default_rng(0)
    gaps = run.poisson_gaps(rng, rate=4.0, n=400)
    assert np.all(gaps > 0)
    assert abs(gaps.mean() - 0.25) < 0.02  # exponential mean 1/rate
    assert abs(np.median(gaps) - np.log(2) / 4.0) < 0.01


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    assert percentile(list(range(1, 51)), 0.8) == 40
    with pytest.raises(ValueError):
        percentile(list(range(1, 100)), 0.9)  # nine beyond p90
    with pytest.raises(ValueError):
        percentile(list(range(1, 50)), 0.8)  # nine beyond p80
    assert percentile(list(range(run.MIN_OPEN_REQUESTS)), run.TAIL_QUANTILE) >= 0


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    parent = tracer.add("parent", 0.0, 10.0)
    tracer.add("child", 1.0, 4.0, parent)
    tracer.add("child", 3.0, 6.0, parent)  # overlaps the first child
    tracer.add("child", 8.0, 12.0, parent)  # runs past the parent's end
    table = tracer.self_times()
    assert table["parent"] == (1, 10.0, 3.0)  # covered: [1, 6] + [8, 10]
    count, total, own = table["child"]
    assert (count, total, own) == (3, 10.0, 10.0)
    assert covered_length(0.0, 1.0, []) == 0.0
    assert covered_length(0.0, 1.0, [(2.0, 3.0)]) == 0.0


def test_chrome_trace_is_complete_events():
    tracer = Tracer()
    with tracer.span("outer", request=3) as outer:
        with tracer.span("inner", outer, request=3):
            pass
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == events[0]["args"]["id"]
    json.dumps(events)


def test_metric_names_match_benchmark_json():
    spec = json.loads(run.BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
