"""Output analysis for the simulation: batch means, CIs, transient removal.

Standard discrete-event output-analysis techniques of the paper's era:

- **non-overlapping batch means** for confidence intervals on steady-state
  means from a single long run (autocorrelated observations),
- **Welch's graphical procedure** for choosing a warm-up truncation point,
- relative-precision helpers used by experiments to decide run lengths.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "batch_means_ci",
    "batch_means",
    "linear_percentiles",
    "welch_moving_average",
    "suggest_warmup_index",
    "relative_half_width",
]


def batch_means(observations: np.ndarray, n_batches: int = 20) -> np.ndarray:
    """Means of ``n_batches`` equal, non-overlapping, consecutive batches.

    A trailing remainder (when the sample size is not divisible) is
    dropped, per standard practice.  When the series is shorter than
    ``n_batches`` the batch count is clamped to the series length
    (one-observation batches) so short tails of a sweep still produce a
    usable — if weak — estimate; at least 2 observations are required to
    form 2 batches.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if n_batches < 2:
        raise ValueError("need at least 2 batches")
    n_batches = min(n_batches, len(obs))
    if n_batches < 2:
        raise ValueError(
            f"too few observations ({len(obs)}) to form 2 batches"
        )
    batch_size = len(obs) // n_batches
    usable = batch_size * n_batches
    # ``.mean(axis=1)`` is this row-wise sum divided by the row length.
    return np.add.reduce(obs[:usable].reshape(n_batches, batch_size), axis=1) / batch_size


def linear_percentiles(values: np.ndarray, percents: Sequence[float]) -> List[float]:
    """``np.percentile(values, percents)`` as Python floats, bit for bit.

    NumPy's default (linear) rule, replayed on the order statistics it
    needs, which one ``np.partition`` places (O(n), and a few microseconds
    where ``np.percentile`` costs tens): the virtual index
    ``v = (n-1) * p/100``; at ``v >= n-1`` both neighbours are the maximum
    (NumPy points both at index ``-1``, so their weight cannot matter);
    otherwise the neighbours are ``floor(v)`` and the next one, weighted by
    the fraction.  The interpolation is NumPy's ``_lerp``: ``b - d*(1-t)``
    for ``t >= 0.5``, else ``a + d*t``.  A NaN anywhere makes every result
    that NaN, as NumPy does.  ``values`` (float64) is not modified.
    """
    last = len(values) - 1
    if last < 0:
        raise ValueError("percentiles of an empty sample")
    picks = []
    kth = {last}
    for p in percents:
        v = last * (p / 100)
        if v >= last:
            lo = hi = last
            t = 0.0
        else:
            lo = math.floor(v)
            hi = lo + 1
            t = v - lo
        kth.add(lo)
        kth.add(hi)
        picks.append((lo, hi, t))
    ordered = np.array(values, dtype=np.float64)
    ordered.partition(sorted(kth))
    top = float(ordered[last])
    if top != top:  # NaN sorts last
        return [top] * len(picks)
    out = []
    for lo, hi, t in picks:
        a = float(ordered[lo])
        b = top if hi == last else float(ordered[hi])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return out


#: ``float(scipy.stats.t.ppf(0.975, df))`` for ``df`` 1..38 (index
#: ``df - 1``), scipy's own bits.  At the default 95% confidence and
#: ``n_batches=20`` these are every quantile a CI asks for: ``len(obs) - 1``
#: below 40 observations, 19 from there on.  Regenerate with
#: ``[float(scipy.stats.t.ppf(0.975, df)) for df in range(1, 39)]``;
#: ``tests/analysis/test_stats.py`` checks each entry against scipy.
_T_975 = (
    12.706204736174694,  # df 1
    4.302652729749462,  # df 2
    3.1824463052837078,  # df 3
    2.7764451051977934,  # df 4
    2.5705818356363146,  # df 5
    2.4469118511449786,  # df 6
    2.364624251592784,  # df 7
    2.306004135204166,  # df 8
    2.262157162798205,  # df 9
    2.228138851986274,  # df 10
    2.200985160091639,  # df 11
    2.1788128296672284,  # df 12
    2.1603686564627913,  # df 13
    2.144786687917804,  # df 14
    2.131449545559776,  # df 15
    2.1199052992212546,  # df 16
    2.1098155778333156,  # df 17
    2.1009220402410382,  # df 18
    2.0930240544083087,  # df 19
    2.085963447265864,  # df 20
    2.0796138447276795,  # df 21
    2.0738730679040254,  # df 22
    2.0686576104190486,  # df 23
    2.0638985616280245,  # df 24
    2.0595385527532972,  # df 25
    2.0555294386428735,  # df 26
    2.0518305164802846,  # df 27
    2.0484071417952454,  # df 28
    2.045229642132703,  # df 29
    2.0422724563012378,  # df 30
    2.039513446396408,  # df 31
    2.0369333434601016,  # df 32
    2.0345152974493383,  # df 33
    2.0322445093177186,  # df 34
    2.030107928250343,  # df 35
    2.0280940009804502,  # df 36
    2.0261924630291093,  # df 37
    2.0243941639119694,  # df 38
)


@lru_cache(maxsize=1024)
def _t_critical(q: float, df: int) -> float:
    """Student-t quantile ``q`` at ``df`` degrees of freedom, bit for bit
    ``float(scipy.stats.t.ppf(q, df))``.

    The 97.5% quantile for ``df`` 1..38 is read from :data:`_T_975`, so a
    default-confidence CI never loads scipy (about 1 s and 65 MB a
    process).  Any other ``(q, df)`` imports ``scipy.stats`` here, on
    first use.  Memoized: ``ppf`` costs tens of microseconds, and a
    sweep asks for the same few values."""
    if q == 0.975 and 1 <= df <= len(_T_975):
        return _T_975[df - 1]
    from scipy import stats as sps

    return float(sps.t.ppf(q, df=df))


def batch_means_ci(
    observations: np.ndarray,
    n_batches: int = 20,
    confidence: float = 0.95,
) -> Tuple[float, float]:
    """Two-sided CI for the steady-state mean via batch means.

    Treats the batch means as approximately i.i.d. normal (valid once
    batches are long relative to the autocorrelation time) and applies the
    Student-t interval.  Returns ``(lo, hi)``.

    The result is always a *finite* interval — degenerate inputs degrade
    gracefully instead of producing NaN (callers compare and plot CIs
    without special-casing):

    - fewer than ``2 * n_batches`` observations fall back to a plain
      t-interval on the raw observations;
    - a single observation yields the zero-width interval ``(v, v)``;
    - non-finite observations (inf from saturated runs, NaN from empty
      summaries) are dropped before estimation;
    - no finite observations at all yields ``(0.0, 0.0)``.
    """
    obs = np.asarray(observations, dtype=np.float64)
    obs = obs[np.isfinite(obs)]
    if len(obs) == 0:
        return (0.0, 0.0)
    if len(obs) == 1:
        return (float(obs[0]), float(obs[0]))
    if len(obs) < 2 * n_batches:
        sample = obs
    else:
        sample = batch_means(obs, n_batches)
    # ``sample.mean()`` and ``sample.std(ddof=1)`` as NumPy computes them
    # (``_mean``: pairwise sum over count; ``_var``: the pairwise sum of
    # squared deviations from that mean over ``k - 1``), without the
    # wrappers' overhead.
    k = len(sample)
    mean = float(np.add.reduce(sample)) / k
    dev = sample - mean
    sem = math.sqrt(float(np.add.reduce(dev * dev)) / (k - 1)) / math.sqrt(k)
    if sem == 0.0:
        return (mean, mean)
    t = _t_critical(0.5 + confidence / 2.0, k - 1)
    return (mean - t * sem, mean + t * sem)


def relative_half_width(observations: np.ndarray, n_batches: int = 20,
                        confidence: float = 0.95) -> float:
    """CI half-width divided by the mean (the usual stopping criterion).

    Returns ``inf`` — never NaN — for series where the criterion is
    meaningless: empty input, zero or non-finite mean, or a non-finite
    interval.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if len(obs) == 0:
        return math.inf
    lo, hi = batch_means_ci(obs, n_batches=n_batches, confidence=confidence)
    mean = float(obs.mean())
    if mean == 0.0 or not math.isfinite(mean) or not math.isfinite(hi - lo):
        return math.inf
    return (hi - lo) / 2.0 / abs(mean)


def welch_moving_average(observations: np.ndarray, window: int = 5) -> np.ndarray:
    """Welch's moving average for warm-up identification.

    Centered moving average with shrinking windows near the start, exactly
    as in Welch's procedure (Law & Kelton §9.5.1): for index ``i < window``
    the window is ``2i+1`` points; beyond that, ``2*window+1`` points.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(obs)
    out = np.empty(n)
    for i in range(n):
        w = min(window, i, n - 1 - i)
        out[i] = obs[i - w : i + w + 1].mean()
    return out


def suggest_warmup_index(observations: np.ndarray, window: int = 25,
                         tolerance: float = 0.05) -> int:
    """Heuristic warm-up truncation point from Welch's curve.

    Returns the first index where the smoothed curve stays within
    ``tolerance`` (relative) of the mean of its final quarter for the rest
    of the series.  Falls back to ``len/10`` when no such index exists.
    """
    obs = np.asarray(observations, dtype=np.float64)
    if len(obs) < 10:
        return 0
    smooth = welch_moving_average(obs, window=min(window, len(obs) // 4))
    tail_mean = smooth[-max(1, len(smooth) // 4):].mean()
    if tail_mean == 0.0:
        return 0
    within = np.abs(smooth - tail_mean) <= tolerance * abs(tail_mean)
    # First index from which the curve never leaves the band again.
    outside = np.where(~within)[0]
    if len(outside) == 0:
        return 0
    idx = int(outside[-1]) + 1
    if idx >= len(obs):
        return len(obs) // 10
    return idx
