"""E11 — Percent delay reduction from affinity under IPS, V family
(paper Fig. 11).

The IPS counterpart of E10: the unaffinitized reference is IPS with
stacks scheduled onto random idle processors (``ips-random``, no
affinity), against the better of IPS-wired / IPS-MRU.  Because every
stack migration invalidates the whole stack-private footprint, the
affinity gap under IPS is at least as large as under Locking.

Status: figure role quoted ("Figures 10 and 11 ... under Locking and IPS,
respectively"); V grid reconstructed.
"""

from __future__ import annotations

from ..analysis.tables import format_series
from .base import ExperimentResult
from .e10_reduction_locking import V_VALUES, reduction_sweep

EXPERIMENT_ID = "e11"
TITLE = "IPS: % delay reduction from affinity scheduling vs rate (Fig. 11)"


def run(fast: bool = True, seed: int = 1, **_) -> ExperimentResult:
    rate_grid = (
        (2_000, 8_000, 16_000, 28_000, 40_000)
        if fast
        else (1_000, 2_000, 4_000, 8_000, 12_000, 16_000, 20_000, 26_000,
              32_000, 38_000, 42_000, 44_000)
    )
    rows, series = reduction_sweep(
        ("ips", "ips-random"),
        (("ips", "ips-wired"), ("ips", "ips-mru")),
        fast, seed, V_VALUES, rate_grid,
    )
    v0_vals = [v for v in series["V=0.0"] if v == v]
    v0_peak = max(v0_vals) if v0_vals else float("nan")
    text = format_series(
        [r["rate_pps"] for r in rows], series, x_label="rate_pps",
        title="% reduction in mean delay (best IPS affinity policy vs random)",
        precision=1,
    )
    from ..analysis.plot import ascii_plot
    text += "\n\n" + ascii_plot(
        [r["rate_pps"] for r in rows], series, x_label="rate_pps",
        y_label="% reduction", title="Fig. 11 shape",
    )
    text += f"\n\nV=0 curve peak: {v0_peak:.1f}% (paper band: 40-50%)"
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        text=text,
        notes=(
            "Stack migration under unaffinitized IPS costs the entire "
            "stack-private footprint, so affinity matters at least as much "
            "as under Locking."
        ),
        meta={"v0_peak_percent": v0_peak},
    )
