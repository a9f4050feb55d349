"""Fixture tests for the per-file lint rules (RPR001–003).

Each rule gets at least one failing and one passing snippet, plus
suppression-comment handling.  Snippets are linted as strings through
``run_file_rules`` with explicit scoping flags, so the tests are
independent of where pytest's tmp dirs live.
"""

import textwrap

import pytest

from repro.lint.rules import run_file_rules
from repro.lint.suppressions import is_suppressed, suppressed_codes


def lint_source(source, *, result_affecting=True, rng_exempt=False,
                hot_path=False, clock_seam=False):
    source = textwrap.dedent(source)
    findings = run_file_rules("snippet.py", source,
                              result_affecting=result_affecting,
                              rng_exempt=rng_exempt,
                              hot_path=hot_path,
                              clock_seam=clock_seam)
    supp = suppressed_codes(source)
    return [f for f in findings if not is_suppressed(supp, f.line, f.code)]


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# RPR001 — determinism
# ----------------------------------------------------------------------
class TestRPR001:
    def test_stdlib_random_import_fires(self):
        assert "RPR001" in codes(lint_source("import random\n"))
        assert "RPR001" in codes(lint_source("from random import shuffle\n"))

    def test_numpy_default_rng_call_fires(self):
        out = lint_source("""
            import numpy as np
            rng = np.random.default_rng(42)
        """)
        assert codes(out) == ["RPR001"]
        assert "default_rng" in out[0].message

    def test_from_import_alias_resolves(self):
        out = lint_source("""
            from numpy.random import default_rng as mk
            rng = mk(7)
        """)
        assert any(f.code == "RPR001" and f.line == 3 for f in out)

    def test_generator_annotation_is_clean(self):
        # Annotations/isinstance checks on np.random.Generator are the
        # codebase's standard idiom and must NOT fire.
        assert lint_source("""
            import numpy as np

            def draw(rng: np.random.Generator) -> float:
                assert isinstance(rng, np.random.Generator)
                return float(rng.normal())
        """) == []

    def test_wallclock_fires_in_result_affecting_code(self):
        out = lint_source("""
            import time
            t = time.time()
        """)
        assert codes(out) == ["RPR001"]

    def test_wallclock_allowed_in_orchestration(self):
        assert lint_source("""
            import time
            t0 = time.perf_counter()
        """, result_affecting=False) == []

    def test_datetime_now_fires(self):
        out = lint_source("""
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert codes(out) == ["RPR001"]

    def test_rng_exempt_file_is_clean(self):
        assert lint_source("""
            import numpy as np
            g = np.random.default_rng(np.random.SeedSequence([1, 2]))
        """, rng_exempt=True) == []


# ----------------------------------------------------------------------
# RPR002 — ordering hazards
# ----------------------------------------------------------------------
class TestRPR002:
    def test_set_literal_iteration_fires(self):
        assert "RPR002" in codes(lint_source("""
            for x in {3, 1, 2}:
                print(x)
        """))

    def test_set_valued_name_iteration_fires(self):
        # The real-world shape: comprehension bound to a name, iterated.
        out = lint_source("""
            def f(records):
                procs = {r.proc for r in records}
                for p in procs:
                    yield p
        """)
        assert codes(out) == ["RPR002"]
        assert "procs" in out[0].message

    def test_sorted_wrapping_is_clean(self):
        assert lint_source("""
            def f(records):
                procs = {r.proc for r in records}
                for p in sorted(procs):
                    yield p
        """) == []

    def test_sorted_comprehension_over_glob_is_clean(self):
        assert lint_source("""
            def f(directory):
                return sorted(p.stem for p in directory.glob("*.json"))
        """) == []

    def test_unsorted_glob_iteration_fires(self):
        out = lint_source("""
            def f(directory):
                return [p.stem for p in directory.glob("*.json")]
        """)
        assert codes(out) == ["RPR002"]

    def test_os_listdir_fires_and_rebinding_clears(self):
        out = lint_source("""
            import os
            for name in os.listdir("."):
                print(name)
        """)
        assert codes(out) == ["RPR002"]
        # A name rebound to a list is no longer set-valued.
        assert lint_source("""
            def f(records):
                procs = {r.proc for r in records}
                procs = sorted(procs)
                for p in procs:
                    yield p
        """) == []

    def test_not_result_affecting_is_exempt(self):
        assert lint_source("""
            for x in {3, 1, 2}:
                print(x)
        """, result_affecting=False) == []


# ----------------------------------------------------------------------
# RPR003 — units discipline
# ----------------------------------------------------------------------
class TestRPR003:
    def test_bare_time_name_fires(self):
        out = lint_source("delay = 3.0\n")
        assert codes(out) == ["RPR003"]
        assert "delay" in out[0].message

    def test_suffixed_names_are_clean(self):
        assert lint_source("""
            delay_us = 3.0
            warmup_s = 1
            interarrival_ms = 0.5
        """) == []

    def test_unitless_suffix_negates(self):
        # Rates/ratios/counts containing a time word are not time values.
        assert lint_source("""
            delay_ratio = 0.5
            wait_count = 3
        """) == []

    def test_parameter_names_checked(self):
        out = lint_source("""
            def serve(packet, lock_wait, exec_us):
                return lock_wait
        """)
        assert codes(out) == ["RPR003"]

    def test_loop_and_comprehension_targets_checked(self):
        assert "RPR003" in codes(lint_source("""
            for timeout in (1, 2, 3):
                print(timeout)
        """))
        assert "RPR003" in codes(lint_source(
            "xs = [latency for latency in samples]\n"))

    def test_mixed_unit_arithmetic_fires(self):
        out = lint_source("""
            duration_us = 5.0
            warmup_s = 1.0
            total = duration_us + warmup_s
        """)
        assert any(f.code == "RPR003" and "mixes" in f.message for f in out)

    def test_same_unit_arithmetic_is_clean(self):
        assert lint_source("""
            duration_us = 5.0
            warmup_us = 1.0
            total_us = duration_us - warmup_us
        """) == []

    def test_us_suffix_does_not_read_as_seconds(self):
        # "_us" must not be mistaken for "_s" by sloppy suffix matching.
        assert lint_source("""
            a_us = 1.0
            b_us = 2.0
            c_us = a_us + b_us
        """) == []

    def test_not_result_affecting_is_exempt(self):
        assert lint_source("delay = 3.0\n", result_affecting=False) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_same_line_suppression(self):
        assert lint_source("""
            import numpy as np
            rng = np.random.default_rng(1)  # repro-lint: ignore[RPR001] test seed
        """) == []

    def test_standalone_line_above_suppression(self):
        assert lint_source("""
            import numpy as np
            # repro-lint: ignore[RPR001] seeded for the fixture
            rng = np.random.default_rng(1)
        """) == []

    def test_suppression_is_code_specific(self):
        # Suppressing RPR003 must not silence the RPR001 on the same line.
        out = lint_source("""
            import numpy as np
            rng = np.random.default_rng(1)  # repro-lint: ignore[RPR003] wrong code
        """)
        assert codes(out) == ["RPR001"]

    def test_multiple_codes_in_one_bracket(self):
        assert lint_source("""
            import numpy as np
            delay = np.random.default_rng(1).normal()  # repro-lint: ignore[RPR001,RPR003] both
        """) == []

    def test_bare_ignore_matches_nothing(self):
        out = lint_source("""
            import numpy as np
            rng = np.random.default_rng(1)  # repro-lint: ignore
        """)
        assert codes(out) == ["RPR001"]


# ----------------------------------------------------------------------
# RPR006 — pickle-safe process targets
# ----------------------------------------------------------------------
class TestRPR006:
    def test_lambda_submission_fires(self):
        out = lint_source("""
            from multiprocessing import Process

            def start(x):
                return Process(target=lambda: x + 1)
        """)
        assert codes(out) == ["RPR006"]
        assert "lambda" in out[0].message

    def test_nested_def_submission_fires(self):
        out = lint_source("""
            import multiprocessing

            def start(xs):
                def work():
                    return len(xs)
                ctx = multiprocessing.get_context("spawn")
                return ctx.Process(target=work, daemon=True)
        """)
        assert codes(out) == ["RPR006"]
        assert "work" in out[0].message

    def test_module_level_function_is_clean(self):
        assert lint_source("""
            import multiprocessing

            def work():
                return 1

            def start():
                return multiprocessing.Process(target=work, args=())
        """) == []

    def test_attribute_receiver_matches(self):
        out = lint_source("""
            class Backend:
                def spawn(self):
                    def main():
                        return 0
                    return self._ctx.Process(target=main, name="w0")
        """)
        assert codes(out) == ["RPR006"]

    def test_non_pool_receiver_is_clean(self):
        # Only Process(target=...) starts a worker: lambdas handed to
        # other calls (pandas-style .map, threads, pool-named receivers)
        # never cross a process boundary by pickling here.
        assert lint_source("""
            import threading

            def run(series, pool):
                pool.submit(lambda: 1)
                threading.Thread(target=lambda: 1)
                return series.map(lambda x: x + 1)
        """) == []

    def test_fires_outside_result_affecting_scope(self):
        # Pickle safety is a crash bug, not a determinism property: the
        # rule applies to orchestration code too.
        out = lint_source("""
            def start(ctx):
                return ctx.Process(target=lambda: None)
        """, result_affecting=False)
        assert codes(out) == ["RPR006"]


# ----------------------------------------------------------------------
# RPR007 — no per-event scalar dispatch in batched hot-path modules
# ----------------------------------------------------------------------
class TestRPR007:
    def test_scalar_model_call_fires_in_hot_path(self):
        out = lint_source("""
            def dispatch(model, state):
                return model.component_penalty_us(state)
        """, hot_path=True)
        assert codes(out) == ["RPR007"]
        assert "component_penalty_us" in out[0].message

    def test_per_packet_scheduling_fires_in_hot_path(self):
        out = lint_source("""
            def arrival(sim, fn, pkt):
                sim.schedule_call(0.0, fn, pkt)
        """, hot_path=True)
        assert codes(out) == ["RPR007"]

    def test_metrics_hook_fires_in_hot_path(self):
        out = lint_source("""
            def record(metrics, pkt):
                metrics.on_completion(pkt)
        """, hot_path=True)
        assert codes(out) == ["RPR007"]

    def test_policy_hook_fires_in_hot_path(self):
        # The fused loops inline policy decisions; calling back into the
        # scalar per-packet policy objects is the regression under test.
        out = lint_source("""
            def refill(dispatcher):
                return dispatcher.policy.next_dispatch()
        """, hot_path=True)
        assert codes(out) == ["RPR007"]
        assert "next_dispatch" in out[0].message

    def test_ips_policy_hook_fires_in_hot_path(self):
        out = lint_source("""
            def place(policy, stack_id, view, last):
                return policy.select_processor(stack_id, view, last)
        """, hot_path=True)
        assert codes(out) == ["RPR007"]

    def test_batch_apis_are_clean_in_hot_path(self):
        assert lint_source("""
            def fold(metrics, cols):
                metrics.extend_columns(*cols)
                metrics.fold_batch_counts(1, 1, 0, 0)
        """, hot_path=True) == []

    def test_same_calls_are_clean_outside_hot_path(self):
        # The scalar engine's per-event calls are its job, not a finding.
        assert lint_source("""
            def dispatch(model, sim, fn, state, pkt):
                sim.schedule_call(0.0, fn, pkt)
                return model.component_penalty_us(state)
        """, hot_path=False) == []

    def test_suppression_comment_is_honored(self):
        out = lint_source("""
            def edge(sim, fn, pkt):
                sim.schedule_call(0.0, fn, pkt)  # repro-lint: ignore[RPR007] fold-back edge
        """, hot_path=True)
        assert out == []


# ----------------------------------------------------------------------
# RPR013 — coordinator/lease logic must use the injectable clock seam
# ----------------------------------------------------------------------
class TestRPR013:
    def test_direct_monotonic_call_fires(self):
        out = lint_source("""
            import time

            def expired(lease, timeout_s):
                return time.monotonic() - lease.last_beat_s > timeout_s
        """, result_affecting=False, clock_seam=True)
        assert codes(out) == ["RPR013"]
        assert "clock seam" in out[0].message

    def test_time_time_call_fires(self):
        out = lint_source("""
            import time

            def stamp():
                return time.time()
        """, result_affecting=False, clock_seam=True)
        assert codes(out) == ["RPR013"]

    def test_from_import_alias_resolves(self):
        out = lint_source("""
            from time import monotonic as now

            def age(lease):
                return now() - lease.granted_at_s
        """, result_affecting=False, clock_seam=True)
        assert codes(out) == ["RPR013"]

    def test_reference_without_call_is_clean(self):
        # The sanctioned default-clock idiom: pass time.monotonic *by
        # reference* into the seam; only calling it directly is banned.
        assert lint_source("""
            import time

            def make_clock(clock=None):
                return clock if clock is not None else time.monotonic
        """, result_affecting=False, clock_seam=True) == []

    def test_sleep_is_clean(self):
        # Waiting is allowed (counted poll slices); *reading* time isn't.
        assert lint_source("""
            import time

            def wait_slice():
                time.sleep(0.02)
        """, result_affecting=False, clock_seam=True) == []

    def test_same_call_clean_outside_seam_scope(self):
        assert lint_source("""
            import time

            def bench():
                return time.monotonic()
        """, result_affecting=False, clock_seam=False) == []

    def test_fires_on_seeded_violation_in_scoped_file(self, tmp_path):
        # File-level wiring: a temp file linted *as* a backends module
        # picks the rule up from CLOCK_SEAM_RELPATHS scoping alone.
        from repro.lint.engine import lint_file

        bad = tmp_path / "lease.py"
        bad.write_text("import time\n\n"
                       "def now_s():\n"
                       "    return time.monotonic()\n")
        found = lint_file(bad, relpath="runner/backends/lease.py")
        assert [f.code for f in found] == ["RPR013"]
        assert lint_file(bad, relpath="runner/runner.py") == []

    def test_suppression_comment_is_honored(self):
        out = lint_source("""
            import time

            def wall():
                return time.time()  # repro-lint: ignore[RPR013] operator-facing log stamp
        """, result_affecting=False, clock_seam=True)
        assert out == []


# ----------------------------------------------------------------------
# Broken input
# ----------------------------------------------------------------------
def test_syntax_error_becomes_finding():
    out = run_file_rules("bad.py", "def broken(:\n",
                         result_affecting=True, rng_exempt=False)
    assert [f.code for f in out] == ["RPR000"]
