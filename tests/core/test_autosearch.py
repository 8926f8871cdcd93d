"""Automated Neuro-C exploration: sampling, Pareto logic, tiny live run.

The exploration lives in :mod:`repro.search`; these checks pin the
properties any automated search over the model space must keep.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner
from repro.experiments.cache import clear_memory_cache
from repro.search import (
    FrontierPoint,
    SearchSettings,
    pareto_points,
    run_search,
    sample_space,
)


def _point(key, acc, lat_ms, flash_kb):
    return FrontierPoint(
        key=key, board="STM32F072RB", accuracy=acc,
        cycles=int(lat_ms * 48_000), latency_ms=lat_ms, flash_kb=flash_kb,
        nnz=10,
        spec={"strategy": "random", "hidden": [4], "threshold": 0.84,
              "encoding": "block", "act_width": 1},
    )


class TestSampling:
    def test_deterministic_and_distinct(self):
        a = sample_space(15, seed=2)
        b = sample_space(15, seed=2)
        assert [s.hidden for s in a] == [s.hidden for s in b]
        assert a == b
        assert len({s.key for s in a}) == 15

    def test_invalid_count(self):
        for bad in (0, -3):
            with pytest.raises(ConfigurationError):
                sample_space(bad)


class TestPareto:
    def test_dominated_points_removed(self):
        good = _point("good", 0.95, 10.0, 5.0)
        dominated = _point("dominated", 0.94, 12.0, 6.0)
        incomparable = _point("incomparable", 0.97, 20.0, 9.0)
        frontier = pareto_points([good, dominated, incomparable])
        assert dominated not in frontier
        assert good in frontier and incomparable in frontier

    def test_frontier_sorted_by_latency(self):
        points = [_point("slow", 0.9, 30.0, 5.0),
                  _point("fast", 0.8, 10.0, 4.0),
                  _point("mid", 0.85, 20.0, 4.5)]
        frontier = pareto_points(points)
        assert len(frontier) == 3
        assert [p.latency_ms for p in frontier] == sorted(
            p.latency_ms for p in frontier
        )


class TestLiveSearch:
    @pytest.fixture
    def report(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        clear_memory_cache()
        runner.reset_timings()
        settings = SearchSettings(
            dataset="digits_like", n_train=400, n_test=150, count=4,
            mode="flat", qat_epochs=3, lr=0.01,
        )
        yield run_search(settings, jobs=1)
        clear_memory_cache()

    def test_search_evaluates_all_candidates(self, report):
        funnel = report.funnels["STM32F072RB"]
        sampled = {s.key for s in sample_space(4, seed=0)}
        assert funnel.stage3_trained == 4
        assert {row["key"] for row in funnel.stage3} == sampled
        assert 1 <= len(funnel.frontier) <= 4
        assert {p.key for p in funnel.frontier} <= sampled
