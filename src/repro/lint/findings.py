"""Finding model shared by every lint rule.

A :class:`Finding` is one rule violation anchored to a file position; the
engine collects, filters (``--select``/``--ignore``/suppression comments)
and renders them.  Codes are stable identifiers (``RPR001``...) documented
in ``docs/LINTING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding", "RULES", "is_known_code"]

#: code -> one-line rule summary (the catalogue; see docs/LINTING.md).
RULES: Dict[str, str] = {
    "RPR001": "determinism: unseeded/ambient randomness or wall-clock reads "
              "in result-affecting code",
    "RPR002": "ordering: iteration over an unordered source (set, directory "
              "listing) feeding results",
    "RPR003": "units: time-valued name lacks a unit suffix, or arithmetic "
              "mixes unit suffixes",
    "RPR004": "cache-key: SystemConfig field neither in the content key nor "
              "on the observability exclusion list",
    "RPR005": "registry: experiment module not registered or missing its "
              "golden snapshot",
    "RPR006": "pickle: a Process(target=...) entrypoint must be a "
              "module-level function (lambdas and nested defs cannot be "
              "unpickled by a spawned worker)",
    "RPR007": "hot-path: per-event scalar dispatch (per-packet model call, "
              "metrics hook or calendar insertion) inside a batched hot-path "
              "module; use the batch APIs",
    "RPR008": "engine parity: a SystemConfig/params field read in the scalar "
              "path is never read by the fused batched engine and is not "
              "declared in _BATCH_IRRELEVANT_FIELDS",
    "RPR009": "rng provenance: a random draw in result-affecting code does "
              "not trace back to the blessed sim/rng.py derivation point, or "
              "an RNG-consuming policy has neither a fused batched path nor "
              "a _SCALAR_FALLBACK_POLICIES entry",
    "RPR010": "metrics parity: the scalar summarize() fold and the batched "
              "columnar fold-back disagree on the summary schema, or a "
              "summary key is covered by no golden field",
    "RPR011": "suppression hygiene: a repro-lint ignore comment no longer "
              "suppresses any finding",
    "RPR012": "warm-state ledger: a module-level mutable cache in "
              "runner/backends/ must be registered in _WARM_LEDGER with a "
              "reason and cleared by reset_warm_state(), so every piece of "
              "state a warm worker can carry across tasks is auditable",
    "RPR013": "clock seam: coordinator/lease logic reads the wall clock "
              "directly instead of taking the injectable clock seam "
              "(DistributedOptions.clock), so lease expiry becomes "
              "untestable and chaos runs unreplayable",
}


def is_known_code(code: str) -> bool:
    return code in RULES


@dataclass(frozen=True)
class Finding:
    """One rule violation at a file position (1-based line, 0-based col)."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)
