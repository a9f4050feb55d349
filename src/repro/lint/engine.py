"""Discovery, filtering and reporting: the ``repro lint`` driver.

:func:`lint_paths` walks the requested files/directories, parses every
``.py`` file **once** into a shared cache, runs the per-file rules
(RPR001–003, RPR006, and RPR007 on hot-path batch modules) against the
cached ASTs, and — when the lint targets include ``sim/system.py`` (i.e.
the package itself is being linted, not an isolated fixture) — runs the
project-level cross-checks (RPR004–005, RPR012) and the interprocedural
flow-analysis rules (RPR008–010) as well, reusing the same cache.  Inline
suppression comments then filter everything uniformly, any suppression
comment that stopped matching a finding is reported as RPR011, and
``--select``/``--ignore`` filters apply last.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from .config import (
    CLOCK_SEAM_RELPATHS,
    HOT_PATH_BATCH_RELPATHS,
    RNG_EXEMPT_RELPATHS,
    default_package_root,
    default_repo_root,
    is_result_affecting,
    relpath_in_package,
)
from .findings import RULES, Finding
from .flow import (
    build_project_index,
    check_config_read_parity,
    check_metrics_schema_parity,
    check_rng_provenance,
)
from .project import (
    check_cache_key_conformance,
    check_registry_conformance,
    check_warm_state_ledger,
)
from .rules import run_file_rules
from .suppressions import (
    SuppressionSite,
    codes_by_line,
    is_suppressed,
    suppression_sites,
)

__all__ = ["lint_paths", "lint_file", "render_report", "render_github",
           "parse_code_list"]


def parse_code_list(raw: Optional[str]) -> Optional[FrozenSet[str]]:
    """Parse a ``--select``/``--ignore`` value like ``"RPR001,RPR003"``.

    Raises :class:`ValueError` on unknown codes so typos fail loudly.
    """
    if raw is None:
        return None
    codes = frozenset(c.strip().upper() for c in raw.split(",") if c.strip())
    unknown = sorted(codes - set(RULES))
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(RULES))}"
        )
    return codes


def _discover(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    seen = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                files.append(candidate)
    return files


@dataclass
class _ParsedFile:
    """One lint target, parsed exactly once and shared by every rule."""

    path: Path
    source: str = ""
    tree: Optional[ast.Module] = None
    error: Optional[Finding] = None
    suppressions: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    sites: List[SuppressionSite] = field(default_factory=list)


def _parse_file(path: Path) -> _ParsedFile:
    parsed = _ParsedFile(path=path)
    try:
        parsed.source = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        parsed.error = Finding(path=str(path), line=1, col=0, code="RPR000",
                               message=f"cannot read file: {exc}")
        return parsed
    try:
        parsed.tree = ast.parse(parsed.source, filename=str(path))
    except SyntaxError as exc:
        parsed.error = Finding(path=str(path), line=exc.lineno or 1,
                               col=(exc.offset or 1) - 1, code="RPR000",
                               message=f"syntax error: {exc.msg}")
    parsed.sites = suppression_sites(parsed.source)
    parsed.suppressions = codes_by_line(parsed.sites)
    return parsed


def _file_findings(parsed: _ParsedFile, relpath: str) -> List[Finding]:
    """Raw (pre-suppression) per-file findings for one parsed target."""
    if parsed.error is not None:
        return [parsed.error]
    return run_file_rules(
        str(parsed.path), parsed.source,
        result_affecting=is_result_affecting(relpath),
        rng_exempt=relpath in RNG_EXEMPT_RELPATHS,
        hot_path=relpath in HOT_PATH_BATCH_RELPATHS,
        clock_seam=relpath in CLOCK_SEAM_RELPATHS,
        tree=parsed.tree,
    )


def _unused_suppressions(parsed: _ParsedFile,
                         raw: Sequence[Finding]) -> List[Finding]:
    """RPR011 findings: suppression comments in ``parsed`` matched by no
    raw finding."""
    out: List[Finding] = []
    for site in parsed.sites:
        used = any(
            f.code in site.codes and f.line in site.covered_lines
            for f in raw
        )
        if not used:
            codes = ",".join(sorted(site.codes))
            out.append(Finding(
                path=str(parsed.path), line=site.line, col=0, code="RPR011",
                message=f"unused suppression: ignore[{codes}] no longer "
                        "silences any finding; delete the comment so the "
                        "suppression baseline stays honest"))
    return out


def lint_file(path: Path, *, package_root: Optional[Path] = None,
              relpath: Optional[str] = None) -> List[Finding]:
    """Run the per-file rules on one file, applying inline suppressions
    and reporting unused suppression comments (RPR011).

    ``relpath`` overrides the package-relative location used for scoping —
    fixture tests use it to lint a temp file *as if* it lived at, say,
    ``sim/foo.py``.
    """
    root = package_root if package_root is not None else default_package_root()
    if relpath is None:
        relpath = relpath_in_package(path, root)
    parsed = _parse_file(path)
    raw = _file_findings(parsed, relpath)
    findings = [f for f in raw
                if not is_suppressed(parsed.suppressions, f.line, f.code)]
    findings.extend(_unused_suppressions(parsed, raw))
    return findings


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    *,
    select: Optional[FrozenSet[str]] = None,
    ignore: Optional[FrozenSet[str]] = None,
    package_root: Optional[Path] = None,
    repo_root: Optional[Path] = None,
) -> List[Finding]:
    """Lint files/directories and return sorted, filtered findings."""
    root = package_root if package_root is not None else default_package_root()
    repo = repo_root if repo_root is not None else default_repo_root()
    targets = [Path(p) for p in paths] if paths else [root]
    files = _discover(targets)

    parsed_by_resolved: Dict[Path, _ParsedFile] = {}
    raw: List[Finding] = []
    for path in files:
        parsed = _parse_file(path)
        parsed_by_resolved[path.resolve()] = parsed
        raw.extend(_file_findings(parsed, relpath_in_package(path, root)))

    def _wanted(*codes: str) -> bool:
        # RPR011 (unused suppression) is judged against the *full* raw
        # finding set, so selecting it disables the rule gating.
        if select is None or "RPR011" in select:
            return True
        return bool(select & set(codes))

    system_py = (root / "sim" / "system.py").resolve()
    if system_py in parsed_by_resolved:
        if _wanted("RPR004", "RPR005"):
            raw.extend(check_cache_key_conformance(
                root / "sim" / "system.py", root / "runner" / "keys.py"))
            raw.extend(check_registry_conformance(
                root / "experiments",
                root / "experiments" / "base.py",
                repo / "tests" / "goldens" / "MANIFEST.json"))
        if _wanted("RPR008", "RPR009"):
            # Interprocedural rules share the parse cache: nothing under
            # the package root is parsed a second time.
            index = build_project_index(
                root,
                trees={p: f.tree for p, f in parsed_by_resolved.items()
                       if f.tree is not None},
                sources={p: f.source for p, f in parsed_by_resolved.items()},
            )
            raw.extend(check_config_read_parity(root, index=index))
            raw.extend(check_rng_provenance(root, index=index))
        if _wanted("RPR010"):
            raw.extend(check_metrics_schema_parity(
                root / "sim" / "metrics.py",
                root / "sim" / "batch.py",
                repo / "tests" / "goldens"))
        if _wanted("RPR012"):
            raw.extend(check_warm_state_ledger(root / "runner" / "backends"))

    findings: List[Finding] = []
    for f in raw:
        parsed = parsed_by_resolved.get(Path(f.path).resolve())
        if parsed is not None and \
                is_suppressed(parsed.suppressions, f.line, f.code):
            continue
        findings.append(f)

    raw_by_resolved: Dict[Path, List[Finding]] = {}
    for f in raw:
        raw_by_resolved.setdefault(Path(f.path).resolve(), []).append(f)
    for resolved, parsed in parsed_by_resolved.items():
        findings.extend(_unused_suppressions(
            parsed, raw_by_resolved.get(resolved, [])))

    if select is not None:
        findings = [f for f in findings if f.code in select]
    if ignore is not None:
        findings = [f for f in findings if f.code not in ignore]
    return sorted(findings, key=Finding.sort_key)


def render_report(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary line."""
    lines = [f.render() for f in findings]
    if findings:
        by_code: dict = {}
        for f in findings:
            by_code[f.code] = by_code.get(f.code, 0) + 1
        counts = ", ".join(f"{code} x{n}" for code, n in sorted(by_code.items()))
        lines.append(f"found {len(findings)} problem(s): {counts}")
    else:
        lines.append("all clean")
    return "\n".join(lines)


def _gh_escape_data(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _gh_escape_property(value: str) -> str:
    return (_gh_escape_data(value)
            .replace(":", "%3A").replace(",", "%2C"))


def render_github(findings: Sequence[Finding],
                  repo_root: Optional[Path] = None) -> str:
    """GitHub Actions workflow annotations, one ``::error`` per finding.

    Paths are emitted repo-relative when possible so the annotations
    attach to files in the PR diff view.
    """
    repo = (repo_root if repo_root is not None else default_repo_root()).resolve()
    lines: List[str] = []
    for f in findings:
        path = Path(f.path)
        try:
            rel = path.resolve().relative_to(repo).as_posix()
        except ValueError:
            rel = f.path
        lines.append(
            f"::error file={_gh_escape_property(rel)},line={f.line},"
            f"col={f.col + 1},title={_gh_escape_property(f.code)}::"
            f"{_gh_escape_data(f.code + ' ' + f.message)}"
        )
    if not findings:
        lines.append("::notice::repro lint: all clean")
    return "\n".join(lines)
