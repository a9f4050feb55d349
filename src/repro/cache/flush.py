"""Set-occupancy flush model: fraction of a footprint displaced by a burst
of intervening references.

Appendix A of the paper derives ``F(x)`` — the fraction of the cached
protocol footprint displaced by intervening non-protocol processing — by
assuming the intervening ``u(R; L)`` unique lines map *independently and
uniformly* into the cache sets (the same assumption is made in [24, 25]).

Let ``X`` be the number of intervening lines landing in a randomly chosen
set; then ``X ~ Binomial(n = u(R; L), p = 1/S)`` for ``S`` sets.  For an
``A``-way set-associative cache with LRU replacement, a resident protocol
line survives only if fewer than ``A`` distinct intervening lines landed in
its set (LRU evicts the protocol line once ``A`` newer lines arrived), so

.. math::

    F = P(X \\ge A) = 1 - \\sum_{k=0}^{A-1} \\binom{n}{k} p^k (1-p)^{n-k}.

Both cache levels of the paper's platform (MIPS R4400 primary caches and
the SGI Challenge secondary cache) are direct-mapped (``A = 1``), where the
expression reduces to ``F = 1 - (1 - 1/S)^n`` — exactly the form used in
the paper.  The general ``A`` is implemented so that other platforms can be
modelled.

The binomial is evaluated through the regularized incomplete beta function
(exact, vectorized, numerically stable for the ``n ~ 1e7`` reference counts
the sweeps produce); a Poisson limit is also provided for cross-checking.
Both import ``scipy.special`` when called, not at import: the paper's
direct-mapped caches never need it, so a default run never loads scipy.
"""

from __future__ import annotations

from typing import Union

import numpy as np

__all__ = [
    "flushed_fraction",
    "flushed_fraction_poisson",
    "survival_fraction",
]


def _validate(n_unique_lines: Union[float, np.ndarray], n_sets: int,
              associativity: int) -> np.ndarray:
    if n_sets < 1:
        raise ValueError(f"n_sets must be >= 1, got {n_sets}")
    if associativity < 1:
        raise ValueError(f"associativity must be >= 1, got {associativity}")
    n = np.asarray(n_unique_lines, dtype=np.float64)
    if np.any(n < 0):
        raise ValueError("n_unique_lines must be non-negative")
    return n


def flushed_fraction(n_unique_lines: Union[float, np.ndarray], n_sets: int,
                     associativity: int = 1) -> Union[float, np.ndarray]:
    """Fraction of a resident footprint displaced by intervening lines.

    Parameters
    ----------
    n_unique_lines:
        Number of *unique* intervening lines ``n = u(R; L)`` (scalar or
        array; fractional values are allowed and interpolated continuously).
    n_sets:
        Number of cache sets ``S``.
    associativity:
        Set associativity ``A`` (LRU within a set).  ``A = 1``
        (direct-mapped) matches the paper's platform.

    Returns
    -------
    ``F = P(X >= A)`` where ``X ~ Binomial(n, 1/S)``, broadcast over the
    input shape.  Values lie in ``[0, 1]`` and are non-decreasing in ``n``.
    """
    n = _validate(n_unique_lines, n_sets, associativity)
    A = int(associativity)
    p = 1.0 / float(n_sets)

    if A == 1:
        # Direct-mapped: F = 1 - (1 - p)^n, computed via expm1/log1p to
        # retain precision for tiny p and huge n.
        out = -np.expm1(n * np.log1p(-p)) if p < 1.0 else np.where(n >= 1.0, 1.0, n)
    else:
        # P(X >= A) = I_p(A, n - A + 1)  (regularized incomplete beta).
        # betainc requires n - A + 1 > 0; for n <= A - 1 the probability of
        # seeing >= A successes in n trials is exactly 0.
        from scipy import special

        out = np.where(
            n > A - 1,
            special.betainc(A, np.maximum(n - A + 1.0, 1e-12), p),
            0.0,
        )
    out = np.clip(out, 0.0, 1.0)
    if np.ndim(n_unique_lines) == 0:
        return float(out)
    return out


def flushed_fraction_poisson(n_unique_lines: Union[float, np.ndarray], n_sets: int,
                             associativity: int = 1) -> Union[float, np.ndarray]:
    """Poisson-limit approximation of :func:`flushed_fraction`.

    With ``n`` large and ``p = 1/S`` small, ``X`` is approximately
    ``Poisson(lambda = n/S)`` and ``P(X >= A) = P(Gamma(A) <= lambda)``
    (regularized lower incomplete gamma).  Provided for validation and for
    closed-form analysis work; the simulator uses the exact binomial form.
    """
    from scipy import special

    n = _validate(n_unique_lines, n_sets, associativity)
    lam = n / float(n_sets)
    out = special.gammainc(float(associativity), lam)
    out = np.clip(out, 0.0, 1.0)
    if np.ndim(n_unique_lines) == 0:
        return float(out)
    return out


def survival_fraction(n_unique_lines: Union[float, np.ndarray], n_sets: int,
                      associativity: int = 1) -> Union[float, np.ndarray]:
    """Complement ``1 - F``: fraction of the footprint still resident."""
    f = flushed_fraction(n_unique_lines, n_sets, associativity)
    return 1.0 - f
