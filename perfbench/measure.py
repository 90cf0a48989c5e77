"""Percentiles with the sample-count rule, host-speed normalization, and
process-level measurements."""
from __future__ import annotations

import math
import resource
import time

import numpy as np

TAIL_SAMPLES = 10  # a reported tail percentile needs this many samples beyond it
# reference_work()'s typical time on the reference host (see README, "Baseline")
REFERENCE_NOMINAL_S = 3.5e-3


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-quantile of n samples."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return n - math.ceil(p * n)


def min_samples(p: float, beyond: int = TAIL_SAMPLES) -> int:
    """Smallest sample count whose p-quantile has `beyond` samples above it."""
    n = 1
    while samples_beyond(n, p) < beyond:
        n += 1
    return n


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank p-quantile: the ceil(p*n)-th smallest value."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)), 1) - 1]


def tail_percentile(values: list[float], p: float) -> float:
    """percentile(), refused when fewer than TAIL_SAMPLES values lie beyond it."""
    beyond = samples_beyond(len(values), p)
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{round(p * 100)} of {len(values)} samples has {beyond} beyond it, "
            f"fewer than {TAIL_SAMPLES}"
        )
    return percentile(values, p)


def peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_work() -> float:
    """A fixed mix of interpreter work and small numpy calls, the kind of
    work the program does; its time tracks the host's current speed."""
    table = {}
    acc = 0
    for i in range(20_000):
        table[i & 255] = acc
        acc += i * i % 7
    gen = np.random.default_rng(1)
    total = float(acc)
    for _ in range(50):
        total += float(gen.random(200).sum())
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def normalized(seconds: float, reference_s: float) -> float:
    """`seconds` measured while reference_work() took `reference_s`, scaled
    to a host on which it takes REFERENCE_NOMINAL_S."""
    return seconds * REFERENCE_NOMINAL_S / reference_s
