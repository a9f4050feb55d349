"""Scoping and vocabulary of the repro lint rules.

The rules distinguish two scopes inside ``src/repro/``:

**result-affecting** code — anything whose execution determines simulation
output (and therefore golden snapshots and result-cache keys).  The base
list is :data:`repro.runner.keys._SIM_SOURCES` — the exact set of packages
hashed into the result cache's code version — extended with the experiment
and verification layers, whose iteration order and randomness feed the
golden files even though they are not part of the cache key.

**orchestration/measurement** code — the CLI, the sweep runner and the
host-timing harness, which legitimately read wall clocks (progress lines,
benchmark timing) and whose iteration order never reaches a result.

The determinism rule's RNG half applies *everywhere* (a stray
``random.random()`` in the CLI would still be a latent hazard); the
wall-clock half and the ordering/units rules apply only to
result-affecting code.
"""

from __future__ import annotations

from pathlib import Path
from typing import Tuple

__all__ = [
    "BLESSED_RNG_CLASS",
    "CLOCK_SEAM_RELPATHS",
    "CONFIG_CLASSES",
    "FORBIDDEN_WALLCLOCK",
    "HOT_PATH_BATCH_RELPATHS",
    "HOT_PATH_SCALAR_CALLS",
    "NUMPY_RANDOM_PREFIX",
    "RESULT_AFFECTING_PREFIXES",
    "RNG_DRAW_METHODS",
    "RNG_EXEMPT_RELPATHS",
    "SCALAR_PATH_RELPATHS",
    "TIME_WORDS",
    "UNIT_SUFFIXES",
    "UNITLESS_SUFFIXES",
    "default_package_root",
    "default_repo_root",
    "is_result_affecting",
    "relpath_in_package",
]

#: Package-relative prefixes of result-affecting code.  Mirrors
#: ``repro.runner.keys._SIM_SOURCES`` (sim, core, cache, workloads,
#: analysis/stats.py — widened to all of analysis/, whose table rendering
#: feeds goldens) plus the layers outside the cache key whose output is
#: still regression-checked: experiments, verify, xkernel.
RESULT_AFFECTING_PREFIXES: Tuple[str, ...] = (
    "sim",
    "core",
    "cache",
    "workloads",
    "analysis",
    "experiments",
    "verify",
    "xkernel",
)

#: Files allowed to construct RNGs: the one blessed seed-derivation point.
RNG_EXEMPT_RELPATHS: Tuple[str, ...] = ("sim/rng.py",)

#: Package-relative paths of the *batched* hot path: modules whose whole
#: point is to amortize per-event Python dispatch.  Re-introducing a
#: per-packet scalar call there (one model call or calendar insertion per
#: packet) silently undoes the batching win while remaining perfectly
#: correct — exactly the class of regression a reviewer won't spot in a
#: diff, so RPR007 makes the linter spot it.
HOT_PATH_BATCH_RELPATHS: Tuple[str, ...] = ("sim/batch.py",)

#: Method/function names that mark per-event scalar dispatch when called
#: inside a hot-path batch module.  The fused core resolves penalties
#: with its own analytic/memo ladder and calls the model's memo-miss
#: kernel (``ExecutionTimeModel.penalty_fill``, a closure over locals)
#: only on a miss, folds metrics with ``extend_columns``/
#: ``fold_batch_counts``, and operates on the calendar wholesale at
#: fold-back; per-packet scheduling and per-packet model or metrics
#: calls are banned.
HOT_PATH_SCALAR_CALLS: Tuple[str, ...] = (
    "component_penalty_us",
    "_penalty_scalar",
    "_pen1",
    "execution_time_us",
    "execution_time_scalar",
    "schedule",
    "schedule_call",
    "schedule_record",
    "at_call",
    "on_arrival",
    "on_completion",
    # Policy hooks: the fused loop must inline policy decisions (queue
    # steering, group-masked MRU), never call back into the scalar
    # per-packet policy/dispatch objects.
    "next_dispatch",
    "select_processor",
)

#: Resolved dotted call targets that read ambient time/entropy.  These are
#: forbidden in result-affecting code; ``time.perf_counter`` & friends are
#: included because even *measuring* wall time inside the simulation layer
#: indicates results may depend on the host.
FORBIDDEN_WALLCLOCK: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.randbelow",
)

#: Package-relative paths of the fleet's time-sensitive core: lease
#: bookkeeping, the transports and their chaos wrapper, and the lease
#: coordinator with the two fleets built on it.
#: These modules must take their time source through the injectable
#: clock seam (``DistributedOptions.clock`` / the ``LeaseTable`` clock
#: argument) rather than *calling* wall-clock functions directly —
#: referencing ``time.monotonic`` as a default value is fine; calling it
#: inline is not (RPR013).  Direct reads make lease-expiry arithmetic
#: untestable (tests would have to sleep real seconds) and chaos runs
#: timing-dependent.
CLOCK_SEAM_RELPATHS: Tuple[str, ...] = (
    "runner/backends/distributed.py",
    "runner/backends/fleet.py",
    "runner/backends/lease.py",
    "runner/backends/transport.py",
    "runner/backends/warm.py",
)

#: Calls resolving under this prefix construct/draw NumPy randomness.
NUMPY_RANDOM_PREFIX = "numpy.random"

#: Snake-case name components that denote a time-valued quantity.  A
#: variable/argument/field whose name contains one of these must carry a
#: unit suffix.  Deliberately conservative: generic words like ``start``/
#: ``end``/``now`` are excluded (they routinely name indices and
#: positions), so the rule stays high-precision.
TIME_WORDS: Tuple[str, ...] = (
    "delay",
    "duration",
    "latency",
    "elapsed",
    "warmup",
    "lifetime",
    "timeout",
    "horizon",
    "interarrival",
    "queueing",
    "wait",
)

#: Accepted explicit time-unit suffixes (also used for mixed-unit checks).
UNIT_SUFFIXES: Tuple[str, ...] = ("_ns", "_us", "_ms", "_s", "_min")

#: Suffixes that mark a name as *not* a raw time value (rates, ratios,
#: counts, flags) even when it contains a time word — e.g.
#: ``delay_ratio``, ``wait_count``.
UNITLESS_SUFFIXES: Tuple[str, ...] = (
    "_pps",
    "_hz",
    "_per_us",
    "_per_s",
    "_per_second",
    "_ratio",
    "_fraction",
    "_count",
    "_counts",
    "_factor",
    "_flag",
    "_id",
    "_ids",
)


#: Package-relative paths of the *scalar* engine path for the RPR008
#: config-read parity rule: the modules whose per-packet behaviour the
#: fused batched engine must reproduce bit for bit.  A ``SystemConfig``/
#: params field read (directly or through a provenance-carrying instance
#: binding) in any of these must also be read by ``sim/batch.py`` or be
#: declared batch-irrelevant there.
SCALAR_PATH_RELPATHS: Tuple[str, ...] = (
    "sim/engine.py",
    "sim/dispatch.py",
    "sim/locks.py",
    "core/exec_model.py",
    "core/policies.py",
)

#: Config dataclasses whose field reads RPR008 tracks across the two
#: engines.  ``SystemConfig`` is the run's identity; the params classes
#: are the knobs it aggregates (``costs``/``composition``/``platform``).
CONFIG_CLASSES: Tuple[str, ...] = (
    "SystemConfig",
    "ProtocolCosts",
    "FootprintComposition",
    "PlatformConfig",
)

#: The one class allowed to derive generators from the run seed
#: (``sim/rng.py``).  Any value flowing out of an instance of it is a
#: blessed generator for RPR009.
BLESSED_RNG_CLASS = "RandomStreams"

#: ``numpy.random.Generator`` method names that consume entropy.  A call
#: of one of these in result-affecting code is an RPR009 draw site whose
#: receiver must trace back to :data:`BLESSED_RNG_CLASS` (or to an
#: explicitly RPR001-suppressed construction).
RNG_DRAW_METHODS: Tuple[str, ...] = (
    "integers", "random", "choice", "shuffle", "permutation", "permuted",
    "exponential", "uniform", "normal", "standard_normal", "lognormal",
    "poisson", "geometric", "binomial", "gamma", "beta", "pareto",
    "weibull", "zipf", "standard_exponential", "standard_gamma", "bytes",
)


def default_package_root() -> Path:
    """The installed ``repro`` package directory (``src/repro`` in a checkout)."""
    return Path(__file__).resolve().parent.parent


def default_repo_root() -> Path:
    """Best-effort repository root: two levels above the package."""
    return default_package_root().parent.parent


def relpath_in_package(path: Path, package_root: Path) -> str:
    """POSIX path of ``path`` relative to the package root, or "" if outside."""
    try:
        return Path(path).resolve().relative_to(Path(package_root).resolve()).as_posix()
    except ValueError:
        return ""


def is_result_affecting(relpath: str) -> bool:
    """Whether a package-relative path is result-affecting code.

    Unknown locations (empty relpath — e.g. a fixture file outside the
    package) are treated as result-affecting: the conservative default for
    code the linter cannot place.
    """
    if not relpath:
        return True
    return relpath.split("/", 1)[0] in RESULT_AFFECTING_PREFIXES
