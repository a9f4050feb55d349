"""repro.lint — domain-specific static analysis for the reproduction.

An AST-based pass enforcing the properties the result cache
(:mod:`repro.runner.keys`), golden regression (:mod:`repro.verify`) and
the scalar↔batched engine-equivalence contract silently assume:

======  ==============================================================
RPR001  determinism — no ambient randomness; no wall clocks in
        result-affecting code
RPR002  ordering — no iteration over unordered sources feeding results
RPR003  units — time-valued names carry unit suffixes; no mixed-unit
        arithmetic
RPR004  cache-key hygiene — every SystemConfig field acknowledged in
        runner/keys.py (content key or observability exclusion)
RPR005  registry/golden conformance — every experiment registered and
        golden-covered
RPR006  pickle safety — ``Process(target=...)`` entrypoints are
        module-level functions
RPR007  hot-path batching — no per-event scalar dispatch inside the
        batched-engine modules
RPR008  config-read parity — every config field the scalar path reads
        is read by the fused batched engine or declared batch-irrelevant
RPR009  rng provenance — every result-affecting draw traces to
        sim/rng.py; RNG-consuming policies are fused or declared
        scalar fallbacks
RPR010  metrics schema parity — scalar fold and batched fold-back agree
        on the summary schema; every summary key is golden-pinned or
        declared uncovered
RPR011  suppression hygiene — no ignore comment outlives the finding it
        silenced
RPR012  warm-state ledger — every module-level mutable cache in
        runner/backends/ is registered and cleared by reset_warm_state()
RPR013  clock seam — coordinator/lease code reads time only through
        ``DistributedOptions.clock``
======  ==============================================================

RPR001–003, RPR006, RPR007 and RPR013 are per-file rules; RPR004–005
and RPR012 are project-level cross-checks; RPR008–010 run on the
interprocedural substrate in :mod:`repro.lint.flow` (symbol tables,
instance-binding provenance, call graph) whenever the whole package is
linted.

Run via ``repro lint [--select CODES] [--ignore CODES] [--format
text|github] [paths]``; suppress individual findings with
``# repro-lint: ignore[RPRnnn] <reason>``.  The full catalogue lives in
``docs/LINTING.md``.
"""

from .engine import (
    lint_file,
    lint_paths,
    parse_code_list,
    render_github,
    render_report,
)
from .findings import RULES, Finding, is_known_code
from .flow import (
    build_project_index,
    check_config_read_parity,
    check_metrics_schema_parity,
    check_rng_provenance,
)
from .project import check_cache_key_conformance, check_registry_conformance

__all__ = [
    "Finding",
    "RULES",
    "is_known_code",
    "lint_file",
    "lint_paths",
    "parse_code_list",
    "render_github",
    "render_report",
    "build_project_index",
    "check_cache_key_conformance",
    "check_config_read_parity",
    "check_metrics_schema_parity",
    "check_registry_conformance",
    "check_rng_provenance",
]
