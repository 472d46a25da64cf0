"""Self-test of the benchmark's own arithmetic.

    python3 -m pytest -q bench/test_benchstats.py
"""

import math
import statistics

import pytest

from benchstats import (
    aggregate,
    command_slowest,
    failed_frac,
    layer_value,
    quartiles,
    spread,
    verdict,
    won_share,
)


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_spread_is_quartile_distance_over_median():
    values = [9.0, 10.0, 10.0, 10.0, 11.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert spread([4.0, 4.0, 4.0]) == 0.0
    assert spread([0.0, 0.0]) == 0.0
    assert math.isinf(spread([-1.0, 0.0, 1.0]))


def test_command_slowest_per_command_across_rounds():
    def op(name, wall, steps=0):
        return {"name": name, "wall_s": wall, "steps": steps}
    rounds = [{"ops": [op("train", 3.0, 40), op("analyze", 1.0)]},
              {"ops": [op("train", 2.0, 40), op("analyze", 9.0)]},
              {"ops": [op("train", 2.5, 40), op("analyze", 2.0)]}]
    assert command_slowest(rounds) == {"train": {"wall_s": 3.0, "steps": 40},
                                       "analyze": {"wall_s": 9.0, "steps": 0}}


def test_failed_frac():
    assert failed_frac(13, 0) == 0.0
    assert failed_frac(12, 3) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)


def test_self_time_subtracts_union_of_direct_children():
    spans = [
        ["outer", 0.0, 10.0, -1, None],
        ["child", 1.0, 3.0, 0, {"mb": 2.0}],
        ["child", 2.0, 5.0, 0, {"mb": 1.0}],    # overlaps the first child
        ["grandchild", 2.5, 4.0, 2, None],       # not a direct child of outer
        ["late", 8.0, 12.0, 0, None],            # runs past outer's end
    ]
    agg = aggregate(spans)
    assert agg["outer"]["s"] == 10.0
    assert agg["outer"]["self_s"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert agg["child"]["calls"] == 2
    assert agg["child"]["s"] == 5.0
    assert agg["child"]["self_s"] == pytest.approx(5.0 - 1.5)
    assert agg["child"]["mb"] == 3.0
    assert agg["grandchild"]["self_s"] == 1.5


def test_aggregate_accumulates_across_processes():
    agg = aggregate([["training.train", 0.0, 2.0, -1, {"steps": 10}]])
    aggregate([["training.train", 5.0, 6.0, -1, {"steps": 4}]], agg)
    assert agg["training.train"] == {"s": 3.0, "self_s": 3.0, "calls": 2, "steps": 14}


def test_layer_values():
    agg = aggregate([
        ["cli.train", 0.0, 4.0, -1, None],
        ["training.train", 1.0, 3.0, 0, {"steps": 7}],
        ["maps.GroupMap.forward", 1.0, 1.5, 1, {"gflop": 1.0}],
        ["maps.GroupMap.backward", 1.5, 2.0, 1, {"gflop": 2.0, "wasted_gflop": 1.0}],
        ["cli.analyze", 5.0, 6.0, -1, None],
        ["stats.fastica", 5.0, 5.5, 4, {"iterations": 9, "converged": 1}],
        ["stats.fastica", 5.5, 6.0, 4, {"iterations": 5, "converged": 0}],
    ])
    assert layer_value(agg, "cli.self_s") == pytest.approx(2.0 + 0.0)
    assert layer_value(agg, "training.train.steps") == 7
    assert layer_value(agg, "training.train.self_s") == pytest.approx(1.0)
    assert layer_value(agg, "maps.GroupMap.gflop") == 3.0
    assert layer_value(agg, "maps.GroupMap.forward.calls") == 1
    assert layer_value(agg, "maps.wasted_gflop_frac") == pytest.approx(1.0 / 3.0)
    assert layer_value(agg, "stats.fastica.iterations") == 14
    assert layer_value(agg, "stats.fastica.converged_frac") == 0.5
    # layers a workload never reaches read 0
    assert layer_value(agg, "linalg.svd_small.s") == 0.0
    assert layer_value(agg, "maps.SubjectMap.gflop") == 0.0
    assert layer_value({}, "maps.wasted_gflop_frac") == 0.0
    assert layer_value({}, "stats.fastica.converged_frac") == 0.0


def test_won_share_counts_ties_for_neither():
    assert won_share([10, 10, 10, 10], [9, 10, 11, 8], "lower") == 0.5
    assert won_share([10, 10, 10, 10], [9, 10, 11, 8], "higher") == 0.25
    assert won_share([], [], "lower") == 0.0


BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_verdict_same_and_worse():
    assert verdict(BASE, [v * 1.02 for v in BASE], "lower", 0.1) == "same"
    assert verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.1) == "worse"
    # for a higher-is-better metric the same drop is a regression
    assert verdict(BASE, [v * 0.8 for v in BASE], "higher", 0.1) == "worse"


def test_verdict_better_needs_pairs_and_distance():
    assert verdict(BASE, [v * 0.8 for v in BASE], "lower", 0.1) == "better"
    # medians far apart, but new wins only half of the pairs
    mixed = [v * (0.8 if i % 2 else 1.01) for i, v in enumerate(BASE)]
    assert verdict(BASE, mixed, "lower", 0.3) == "same"


def test_verdict_unresolved_when_spread_exceeds_bound():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(BASE, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, BASE, "lower", 0.1) == "unresolved"
    # every new run beats every base run: a gain even through the spread
    assert verdict(noisy, [v / 10.0 for v in BASE], "lower", 0.1) == "better"


def test_verdict_without_bound():
    assert verdict(BASE, BASE, "lower", None) == "-"
