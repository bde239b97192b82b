"""Statistics for the vadalogd benchmark: percentiles, METRICS deltas and
ratios, and the wire-time subtraction. Pure functions; tested by
perfbench/tests/test_stats.py."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it, so one outlier cannot set it.
MIN_BEYOND = 10


class NotEnoughSamples(ValueError):
    pass


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by the nearest-rank method.

    Raises NotEnoughSamples unless at least MIN_BEYOND samples lie
    strictly above the returned rank."""
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))  # 1-based
    if n - rank < MIN_BEYOND:
        raise NotEnoughSamples(
            "p%g of %d samples has %d beyond it, fewer than %d"
            % (q, n, max(0, n - rank), MIN_BEYOND))
    return sorted(values)[rank - 1]


def median(values):
    """Plain median, for repeated in-process calls (no tail claim)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise NotEnoughSamples("median of no samples")
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def _matches(sample, name, labels):
    if sample["name"] != name:
        return False
    have = sample.get("labels", {})
    return all(have.get(k) == v for k, v in labels.items())


def metric_value(snapshot, name, **labels):
    """Sum of the counter/gauge values of every series of `name` whose
    labels include `labels` (0 when none exists). Histograms contribute
    their observation count."""
    total = 0
    for sample in snapshot:
        if _matches(sample, name, labels):
            total += sample["count"] if "count" in sample else sample["value"]
    return total


def metric_delta(before, after, name, **labels):
    """How much `name` grew between two METRICS snapshots."""
    return metric_value(after, name, **labels) - metric_value(
        before, name, **labels)


def ratio(numerator, denominator):
    """numerator / denominator, 0 when nothing was counted at all."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def wire_us(rtt_us, total_us):
    """Client round trip minus the server's own end-to-end time: the
    time spent in the kernel, the event loop and the worker queue.
    Clamped at 0 (the two clocks are read at different points)."""
    return [max(0.0, r - t) for r, t in zip(rtt_us, total_us)]
