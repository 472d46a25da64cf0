"""The benchmark's own arithmetic: quartiles, slowest repeats, failure share, span self time, compare verdicts.

Kept free of subjmap and numpy imports so the self-test runs in milliseconds.
"""

from __future__ import annotations

import statistics

# --- summaries ---------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def command_slowest(rounds) -> dict:
    """Each command's largest wall time and its median step count over ``rounds``.

    Summing these gives one round's time with every command at its slowest
    repeat.  On a shared host a command's times fall in two modes about 1.5x
    apart: the usual one, while other tenants load the cores, and a fast one
    in stretches when they idle.  How long those stretches last changes from
    minute to minute, so a median flips between the modes from run to run;
    the slowest repeat stays on the usual one unless the whole run is quiet.
    """
    walls: dict = {}
    steps: dict = {}
    for r in rounds:
        for op in r["ops"]:
            walls.setdefault(op["name"], []).append(op["wall_s"])
            steps.setdefault(op["name"], []).append(op["steps"])
    return {name: {"wall_s": max(walls[name]), "steps": median(steps[name])}
            for name in walls}


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return failed / attempted


# --- spans --------------------------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans, into: dict | None = None) -> dict:
    """Sum one process's spans by name: inclusive time, self time, calls and extras.

    A span is ``[name, start, end, parent, extra]``; ``parent`` indexes the
    enclosing span in the same list or is -1.  Self time is the span's
    duration minus the part of it that its direct children cover.
    """
    out = {} if into is None else into
    children: dict[int, list] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    for i, (name, start, end, _parent, extra) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
        entry["calls"] += 1
        for key, value in (extra or {}).items():
            entry[key] = entry.get(key, 0) + value
    return out


def layer_value(agg: dict, metric: str) -> float:
    """One per-layer metric from aggregated spans; 0 when the layer never ran.

    ``<span>.<field>`` reads a field of the span named ``<span>``.  The
    composite metrics are ``cli.self_s`` (self time of every CLI command),
    ``maps.<Family>.gflop`` (forward plus backward), ``maps.wasted_gflop_frac``
    and ``stats.fastica.converged_frac``.
    """
    if metric == "cli.self_s":
        return sum(v["self_s"] for k, v in agg.items() if k.startswith("cli."))
    if metric.startswith("maps.") and metric.endswith(".gflop"):
        family = metric[:-len(".gflop")]
        return sum(agg.get(f"{family}.{d}", {}).get("gflop", 0.0)
                   for d in ("forward", "backward"))
    if metric == "maps.wasted_gflop_frac":
        maps = [v for k, v in agg.items() if k.startswith("maps.")]
        total = sum(v.get("gflop", 0.0) for v in maps)
        return sum(v.get("wasted_gflop", 0.0) for v in maps) / total if total else 0.0
    if metric == "stats.fastica.converged_frac":
        entry = agg.get("stats.fastica")
        return entry["converged"] / entry["calls"] if entry else 0.0
    span, _, field = metric.rpartition(".")
    return float(agg.get(span, {}).get(field, 0.0))


# --- compare --------------------------------------------------------------------


def won_share(base, new, better: str) -> float:
    """Share of (base, new) pairs in which ``new`` is better; ties count for neither."""
    pairs = list(zip(base, new))
    if not pairs:
        return 0.0
    if better == "lower":
        wins = sum(1 for a, b in pairs if b < a)
    else:
        wins = sum(1 for a, b in pairs if b > a)
    return wins / len(pairs)


def verdict(base, new, better: str, bound: float | None) -> str:
    """Compare two sets of runs of one metric on one workload.

    ``worse``: the new median is worse than the base median by more than the
    bound.  ``better``: the new side wins at least nine tenths of the pairs
    and the medians differ by more than the base's own quartile distance.
    ``unresolved``: either side's spread exceeds the bound, unless every new
    run beats every base run.  Metrics without a bound get ``-``.
    """
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = median(base), median(new)
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if spread(base) > bound or spread(new) > bound:
        return "better" if all_better else "unresolved"
    if sign * (n_med - b_med) > bound * abs(b_med):
        return "worse"
    q1, _, q3 = quartiles(base)
    if won_share(base, new, better) >= 0.9 and sign * (b_med - n_med) > (q3 - q1):
        return "better"
    return "same"
