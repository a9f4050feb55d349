"""Golden-result regression: record and check experiment snapshots.

``record`` runs experiments on their fast grids and snapshots the
*structured* output (rows + JSON-able meta — never the rendered text,
which may change cosmetically) to content-addressed JSON files under
``tests/goldens/``; ``check`` re-runs the same experiments through the
active :class:`~repro.runner.SweepRunner` and diffs the fresh output
against the stored goldens field by field, producing a readable
per-experiment report.

Comparison semantics
--------------------
- integers, booleans, strings, ``None`` — exact;
- floats — bit-equality passes immediately (the simulation is fully
  deterministic per seed, so a faithful re-run reproduces every quantity
  exactly); otherwise a relative tolerance applies, calibrated well below
  the fast-grid batch-means CI half-widths so that statistically harmless
  float-order perturbations pass while any model-level drift (e.g. a
  changed timing constant) fails.  ``rtol=0`` is exact: no absolute
  floor either, so only bit-equal floats pass;
- non-finite floats — exact (``inf`` marks saturation and ``NaN`` marks
  empty runs; a point flipping either way is a behavioural change).

Content addressing
------------------
Every golden stores the SHA-256 of its canonical payload and the
directory's ``MANIFEST.json`` indexes experiment id -> digest, so a
tampered or torn golden is detected (status ``corrupt``) before any value
comparison, and two golden sets can be compared by digest alone.

This module is imported lazily by :mod:`repro.verify` (it pulls in the
experiment registry, which imports the simulator).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..experiments.base import EXPERIMENT_IDS, run_experiment
from ..runner.keys import UncacheableConfig, canonicalize, code_version

__all__ = [
    "DEFAULT_RTOL",
    "ExperimentCheck",
    "FieldMismatch",
    "GoldenReport",
    "check",
    "default_goldens_dir",
    "golden_path",
    "record",
]

#: On-disk golden format; bump when the layout changes.
_FORMAT = 1

#: Default relative tolerance for float fields.  The fast-grid delay
#: estimates carry batch-means CI half-widths of roughly 1 % of the mean;
#: 0.1 % passes float-noise-level perturbations while failing any model
#: drift big enough to matter (e.g. t_cold 284.3 -> 290 shifts delays by
#: ~2 %).
DEFAULT_RTOL = 1e-3

#: Absolute floor below which float differences are ignored (pure
#: rounding near zero).  Not applied at ``rtol=0``, which is exact.
DEFAULT_ATOL = 1e-9


def default_goldens_dir() -> Path:
    """``tests/goldens`` of the repository checkout this package lives in."""
    root = Path(__file__).resolve().parents[3]
    candidate = root / "tests" / "goldens"
    if (root / "tests").is_dir():
        return candidate
    return Path("tests") / "goldens"


def golden_path(directory: Path, experiment_id: str) -> Path:
    return Path(directory) / f"{experiment_id}.json"


def _manifest_path(directory: Path) -> Path:
    return Path(directory) / "MANIFEST.json"


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def _payload_digest(payload: dict) -> str:
    """Content address: SHA-256 over the canonical JSON of the payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _jsonable_meta(meta: dict) -> Tuple[dict, List[str]]:
    """Canonicalize meta values; skip (and report) unserializable ones."""
    out: Dict[str, object] = {}
    skipped: List[str] = []
    for key in sorted(meta):
        try:
            out[key] = canonicalize(meta[key])
        except UncacheableConfig:
            skipped.append(key)
    return out, skipped


def _snapshot(experiment_id: str, seed: int, fast: bool) -> Dict[str, object]:
    """Run one experiment and reduce it to its golden payload."""
    result = run_experiment(experiment_id, fast=fast, seed=seed)
    meta, skipped = _jsonable_meta(result.meta)
    return {
        "experiment_id": experiment_id,
        "seed": seed,
        "fast": fast,
        "rows": canonicalize(result.rows),
        "meta": meta,
        "meta_skipped": skipped,
    }


def record(
    ids: Optional[Sequence[str]] = None,
    seed: int = 1,
    fast: bool = True,
    directory: Optional[Path] = None,
) -> List[Path]:
    """Record goldens for ``ids`` (default: the e01..e14 suite).

    Runs execute through the active default runner, so caching and
    parallelism apply.  Returns the written paths (goldens + manifest).
    The files contain no timestamps: re-recording unchanged code yields
    byte-identical goldens.
    """
    ids = tuple(ids) if ids is not None else EXPERIMENT_IDS
    directory = Path(directory) if directory is not None else default_goldens_dir()
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    manifest: Dict[str, str] = {}
    for eid in ids:
        payload = _snapshot(eid, seed, fast)
        digest = _payload_digest(payload)
        entry = {"format": _FORMAT, "sha256": digest,
                 "code_version": code_version(), **payload}
        path = golden_path(directory, eid)
        path.write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
        written.append(path)
        manifest[eid] = digest
    mpath = _manifest_path(directory)
    existing: Dict[str, str] = {}
    if mpath.exists():
        try:
            existing = json.loads(mpath.read_text()).get("goldens", {})
        except (OSError, ValueError):
            existing = {}
    existing.update(manifest)
    mpath.write_text(json.dumps(
        {"format": _FORMAT, "goldens": dict(sorted(existing.items()))},
        indent=1, sort_keys=True) + "\n")
    written.append(mpath)
    return written


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FieldMismatch:
    """One golden-vs-fresh difference."""

    location: str          # e.g. "rows[3].mru"
    golden: object
    actual: object
    detail: str

    def describe(self) -> str:
        return f"{self.location}: golden {self.golden!r}, got {self.actual!r} ({self.detail})"


@dataclass
class ExperimentCheck:
    """Outcome of checking one experiment against its golden."""

    experiment_id: str
    status: str            # ok | mismatch | structure | corrupt | missing
    mismatches: List[FieldMismatch] = field(default_factory=list)
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class GoldenReport:
    """All per-experiment outcomes of one ``check`` invocation."""

    checks: List[ExperimentCheck]
    rtol: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failed_ids(self) -> List[str]:
        return [c.experiment_id for c in self.checks if not c.ok]

    def format(self, max_mismatches: int = 10) -> str:
        n_ok = sum(c.ok for c in self.checks)
        lines = [
            f"golden check: {n_ok}/{len(self.checks)} experiments ok "
            f"(rtol={self.rtol:g})"
        ]
        for c in self.checks:
            if c.ok:
                continue
            head = f"FAIL {c.experiment_id} [{c.status}]"
            if c.note:
                head += f": {c.note}"
            lines.append(head)
            for m in c.mismatches[:max_mismatches]:
                lines.append(f"  {m.describe()}")
            hidden = len(c.mismatches) - max_mismatches
            if hidden > 0:
                lines.append(f"  ... and {hidden} more mismatches")
        if not self.ok:
            lines.append("affected experiments: " + ", ".join(self.failed_ids))
        return "\n".join(lines)


def _compare(location: str, golden: object, actual: object,
             rtol: float, atol: float,
             out: List[FieldMismatch]) -> None:
    """Recursive field-by-field diff (appends mismatches to ``out``)."""
    # bool is an int subclass: compare it before the numeric branch.
    if isinstance(golden, bool) or isinstance(actual, bool):
        if golden is not actual:
            out.append(FieldMismatch(location, golden, actual, "boolean differs"))
        return
    if isinstance(golden, (int, float)) and isinstance(actual, (int, float)):
        if golden == actual:
            return
        gf, af = float(golden), float(actual)
        if math.isnan(gf) and math.isnan(af):
            return
        if not (math.isfinite(gf) and math.isfinite(af)):
            out.append(FieldMismatch(
                location, golden, actual,
                "non-finite marker differs (saturation/empty-run flip)"))
            return
        if isinstance(golden, int) and isinstance(actual, int):
            out.append(FieldMismatch(location, golden, actual, "exact integer differs"))
            return
        tol = max(atol, rtol * abs(gf))
        if abs(gf - af) > tol:
            rel = abs(gf - af) / abs(gf) if gf else math.inf
            out.append(FieldMismatch(
                location, golden, actual,
                f"relative error {rel:.3%} exceeds tolerance {rtol:g}"))
        return
    if isinstance(golden, list) and isinstance(actual, list):
        if len(golden) != len(actual):
            out.append(FieldMismatch(
                location, f"{len(golden)} items", f"{len(actual)} items",
                "length differs"))
            return
        for i, (g, a) in enumerate(zip(golden, actual)):
            _compare(f"{location}[{i}]", g, a, rtol, atol, out)
        return
    if isinstance(golden, dict) and isinstance(actual, dict):
        gkeys, akeys = set(golden), set(actual)
        for key in sorted(gkeys - akeys):
            out.append(FieldMismatch(f"{location}.{key}", golden[key],
                                     "<absent>", "field disappeared"))
        for key in sorted(akeys - gkeys):
            out.append(FieldMismatch(f"{location}.{key}", "<absent>",
                                     actual[key], "new field"))
        for key in sorted(gkeys & akeys):
            _compare(f"{location}.{key}", golden[key], actual[key],
                     rtol, atol, out)
        return
    if golden != actual:
        out.append(FieldMismatch(location, golden, actual, "value differs"))


def _load_golden(path: Path) -> Tuple[Optional[dict], str]:
    """Load + integrity-verify one golden; returns (entry, error)."""
    try:
        entry = json.loads(path.read_text())
    except FileNotFoundError:
        return None, "missing"
    except (OSError, ValueError) as exc:
        return None, f"unreadable: {exc}"
    if entry.get("format") != _FORMAT:
        return None, f"unknown format {entry.get('format')!r}"
    payload = {k: entry.get(k) for k in
               ("experiment_id", "seed", "fast", "rows", "meta", "meta_skipped")}
    if _payload_digest(payload) != entry.get("sha256"):
        return None, "content digest mismatch (torn or hand-edited golden)"
    return entry, ""


def check(
    ids: Optional[Sequence[str]] = None,
    directory: Optional[Path] = None,
    rtol: float = DEFAULT_RTOL,
    atol: Optional[float] = None,
) -> GoldenReport:
    """Re-run experiments and diff against their recorded goldens.

    ``atol`` defaults to :data:`DEFAULT_ATOL`, or to 0 when ``rtol`` is 0
    so that an ``rtol=0`` check passes only bit-equal floats (NaN still
    equals NaN).  ``ids`` defaults to every golden present in
    ``directory``.  Each
    golden's recorded seed/fast flags drive its re-run, so a check always
    regenerates exactly what was snapshotted.
    """
    directory = Path(directory) if directory is not None else default_goldens_dir()
    if atol is None:
        atol = 0.0 if rtol == 0 else DEFAULT_ATOL
    if ids is None:
        ids = sorted(p.stem for p in directory.glob("*.json")
                     if p.name != "MANIFEST.json")
        if not ids:
            raise FileNotFoundError(
                f"no goldens under {directory}; run `repro verify record` first"
            )
    checks: List[ExperimentCheck] = []
    for eid in ids:
        entry, error = _load_golden(golden_path(directory, eid))
        if entry is None:
            status = "missing" if error == "missing" else "corrupt"
            checks.append(ExperimentCheck(eid, status, note=error))
            continue
        fresh = _snapshot(eid, int(entry["seed"]), bool(entry["fast"]))
        mismatches: List[FieldMismatch] = []
        _compare("rows", entry["rows"], fresh["rows"], rtol, atol, mismatches)
        _compare("meta", entry["meta"], fresh["meta"], rtol, atol, mismatches)
        if entry.get("meta_skipped") != fresh["meta_skipped"]:
            mismatches.append(FieldMismatch(
                "meta_skipped", entry.get("meta_skipped"),
                fresh["meta_skipped"], "serializable meta keys changed"))
        if mismatches:
            structural = all("differs" not in m.detail and "error" not in m.detail
                             for m in mismatches)
            checks.append(ExperimentCheck(
                eid, "structure" if structural else "mismatch", mismatches))
        else:
            checks.append(ExperimentCheck(eid, "ok"))
    return GoldenReport(checks=checks, rtol=rtol)
