"""Stable content keys for simulation configurations.

The persistent result cache (:mod:`repro.runner.cache`) stores one
:class:`~repro.sim.metrics.SimulationSummary` per *content key*: a SHA-256
digest of

1. a **canonical serialization** of the :class:`~repro.sim.system.SystemConfig`
   — every knob that influences the simulation's output (traffic spec,
   paradigm/policy, platform geometry, cost constants, footprint
   composition, horizon, seed, ...), serialized structurally (type name +
   field values, recursively) so that two configs compare equal iff they
   would produce identical runs; and
2. a **code version** — a digest of the source files of the packages that
   determine simulation results (``sim``, ``core``, ``cache``,
   ``workloads`` and the statistics used by the metrics summary), so any
   change to the simulator automatically invalidates every cached result.

The digested text is, by definition, ``json.dumps({"code": code_version(),
"config": canonicalize(config)}, sort_keys=True, separators=(",", ":"))``.
:func:`config_key` writes that text in one pass over the config, from a
per-type field layout computed once, instead of building the canonical
structure and re-sorting it; the bytes are the same.

Configs that cannot be canonicalized — e.g. a pre-built policy *instance*
instead of a registry name — raise :class:`UncacheableConfig`; the sweep
runner treats those runs as uncacheable and simply executes them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["UncacheableConfig", "canonicalize", "code_version", "config_key"]


class UncacheableConfig(ValueError):
    """The config contains a value with no canonical serialization."""


#: Pure-observability dataclass fields excluded from canonical form (keyed
#: by qualified type name to avoid importing the types here).  These knobs
#: can never change simulation *results* — ``trace`` records what happened,
#: ``check_invariants`` asserts about it — so a traced/checked run must hit
#: the same cache entry as a plain one.
_OBSERVABILITY_FIELDS = {
    "repro.sim.system.SystemConfig": frozenset({"trace", "check_invariants"}),
}

#: Explicit acknowledgement that each :class:`SystemConfig` field
#: participates in the content key.  :func:`canonicalize` serializes
#: dataclass fields *dynamically*, so a newly added field is hashed
#: automatically — but silently, without anyone deciding whether it is
#: result-affecting (belongs here) or pure observability (belongs in
#: :data:`_OBSERVABILITY_FIELDS`).  The ``repro lint`` RPR004 rule
#: cross-checks this list against the SystemConfig definition and fails
#: on any field present in neither, forcing that decision to be made in
#: this file.  Keep in sync with ``repro/sim/system.py``.
_CONTENT_KEY_FIELDS = frozenset({
    "traffic",
    "paradigm",
    "policy",
    "platform",
    "costs",
    "composition",
    "nonprotocol_intensity",
    "n_stacks",
    "churn",
    "data_touching",
    "fixed_overhead_us",
    "lock_granularity",
    "duration_us",
    "warmup_us",
    "seed",
    "policy_kwargs",
})


class _Layout:
    """How one dataclass type is keyed, computed once per type: its tag,
    the keyed field names in declaration order (:func:`canonicalize`),
    and for :func:`config_key` the keyed fields in sorted-key order, each
    with the canonical text before its value, so an instance's text is
    ``parts[0][0] + value 0 + parts[1][0] + ... + tail``."""

    __slots__ = ("qualname", "names", "parts", "tail")

    def __init__(self, cls: type) -> None:
        self.qualname = f"{cls.__module__}.{cls.__qualname__}"
        skip = _OBSERVABILITY_FIELDS.get(self.qualname, frozenset())
        self.names = tuple(f.name for f in dataclasses.fields(cls)
                           if f.name not in skip)
        parts: List[Tuple[str, str]] = []
        pending = "{"
        for i, name in enumerate(sorted({"__type__", *self.names})):
            pending += "," if i else ""
            if name == "__type__":
                pending += '"__type__":' + _encode_str(self.qualname)
            else:
                parts.append((pending + _encode_str(name) + ":", name))
                pending = ""
        self.tail = pending + "}"
        # A field named like the tag replaces it: no direct text then.
        self.parts = None if "__type__" in self.names else tuple(parts)


#: Layout per type; ``None`` marks a type that is no dataclass.
_LAYOUTS: Dict[type, Optional[_Layout]] = {}


def _layout(cls: type) -> Optional[_Layout]:
    if cls not in _LAYOUTS:
        _LAYOUTS[cls] = _Layout(cls) if dataclasses.is_dataclass(cls) else None
    return _LAYOUTS[cls]


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-able structure that identifies its value.

    Handles primitives, tuples/lists, string-keyed dicts, and (recursively)
    frozen dataclasses — which covers :class:`SystemConfig` and every spec
    object it embeds.  Dataclasses are tagged with their qualified type
    name so two spec types with identical fields do not collide.
    Observability-only fields (see :data:`_OBSERVABILITY_FIELDS`) are
    omitted so they cannot fragment the cache.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (tuple, list)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise UncacheableConfig(f"non-string dict key {k!r}")
            out[k] = canonicalize(v)
        return out
    layout = _layout(type(obj))
    if layout is not None:
        tagged = {"__type__": layout.qualname}
        for name in layout.names:
            tagged[name] = canonicalize(getattr(obj, name))
        return tagged
    raise UncacheableConfig(
        f"cannot canonicalize {type(obj).__qualname__!r} value {obj!r}"
    )


_INF = float("inf")


def _float_text(x: float) -> str:
    """``json.dumps`` text of a float."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


#: ``json.dumps`` text of the leaf types, by exact type.
_LEAF_TEXT: Dict[type, Callable[[Any], str]] = {
    float: _float_text,
    int: int.__repr__,
    str: _encode_str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _canonical_text(obj: Any) -> str:
    """``json.dumps(canonicalize(obj), sort_keys=True,
    separators=(",", ":"))`` in one pass: exact leaf types, tuples, lists
    and dataclasses are written directly; anything else (dicts,
    subclasses, unknown objects) takes that two-step definition, which
    also raises :class:`UncacheableConfig` where it would."""
    t = type(obj)
    leaf = _LEAF_TEXT.get(t)
    if leaf is not None:
        return leaf(obj)
    if t is tuple or t is list:
        return "[" + ",".join([_LEAF_TEXT.get(type(v), _canonical_text)(v)
                               for v in obj]) + "]"
    layout = _layout(t)
    if layout is None or layout.parts is None:
        return json.dumps(canonicalize(obj), sort_keys=True,
                          separators=(",", ":"))
    out: List[str] = []
    for text, name in layout.parts:
        value = getattr(obj, name)
        out.append(text + _LEAF_TEXT.get(type(value), _canonical_text)(value))
    out.append(layout.tail)
    return "".join(out)


#: Package-relative sources whose content defines simulation behaviour.
#: Formatting/CLI/experiment-table code is deliberately excluded so cosmetic
#: changes do not invalidate the cache.
_SIM_SOURCES = ("sim", "core", "cache", "workloads", "analysis/stats.py")


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the simulation-defining source files (16 hex chars)."""
    root = Path(__file__).resolve().parent.parent  # the repro package
    digest = hashlib.sha256()
    for entry in _SIM_SOURCES:
        path = root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            digest.update(f.relative_to(root).as_posix().encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def config_key(config: Any) -> str:
    """Content key of one run: SHA-256 over config + code version (the
    text of the module docstring, written by :func:`_canonical_text`).

    Raises :class:`UncacheableConfig` for configs that embed
    non-serializable values (e.g. policy instances).
    """
    blob = ('{"code":' + _encode_str(code_version()) + ',"config":'
            + _canonical_text(config) + "}")
    return hashlib.sha256(blob.encode()).hexdigest()
