"""Unit coverage of the interprocedural substrate (repro.lint.flow).

These tests build small synthetic package trees so each mechanism —
symbol tables, provenance-carrying instance bindings, the call graph,
config-attribute closures, draw-site classification — is checked in
isolation from the real codebase's size.
"""

import pathlib
import textwrap

from repro.lint.flow import (
    build_project_index,
    check_config_read_parity,
    check_rng_provenance,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


def make_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    for relpath, source in files.items():
        path = pkg / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return pkg


PARAMS = """
    class ProtocolCosts:
        t_warm_us: float = 1.0
        t_cold_us: float = 5.0

        @property
        def reload_us(self) -> float:
            return self.t_cold_us - self.t_warm_us

    class SystemConfig:
        seed: int = 1
        knob_a: float = 0.5
        knob_b: float = 0.25
        costs: ProtocolCosts = None
"""

RNG = """
    import numpy as np

    class RandomStreams:
        def __init__(self, seed):
            self._root = np.random.default_rng(seed)

        def stream(self):
            return self._root
"""


# ----------------------------------------------------------------------
# Index construction
# ----------------------------------------------------------------------
class TestIndex:
    def test_symbol_tables_and_subclasses(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/engine.py": """
                class Base:
                    def hook(self):
                        return 0

                class Child(Base):
                    def hook(self):
                        return 1

                def helper():
                    return Child()
            """,
        })
        index = build_project_index(pkg)
        assert "Base" in index.classes and "Child" in index.classes
        assert index.subclasses["Base"] == {"Child"}
        assert index.find_method("Child", "hook") == "Child.hook"
        assert "sim/engine.py::helper" in index.functions

    def test_config_attr_closure_expands_properties(self, tmp_path):
        pkg = make_pkg(tmp_path, {"core/params.py": PARAMS})
        index = build_project_index(pkg)
        closure = index.config_attr_closure[("ProtocolCosts", "reload_us")]
        assert closure == {"t_warm_us", "t_cold_us"}

    def test_binding_provenance_credits_dereferencing_file(self, tmp_path):
        # Engine.__init__ captures config.knob_a into self.knob; the
        # *dereference* in batch.py must count as batch.py reading knob_a.
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/engine.py": """
                from ..core.params import SystemConfig

                class Engine:
                    def __init__(self, config: SystemConfig):
                        self.knob = config.knob_a
            """,
            "sim/batch.py": """
                from .engine import Engine

                def fold(engine: Engine):
                    return engine.knob
            """,
        })
        index = build_project_index(pkg)
        assert ("SystemConfig", "knob_a") in index.reads["sim/batch.py"]

    def test_arithmetic_binding_keeps_operand_provenance(self, tmp_path):
        # A binding derived by arithmetic from other bindings still reads
        # their config fields when dereferenced.
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/engine.py": """
                from ..core.params import SystemConfig

                class Engine:
                    def __init__(self, config: SystemConfig):
                        self.a = config.knob_a
                        self.b = config.knob_b
                        self.total = self.a + 2.0 * self.b
            """,
            "sim/batch.py": """
                from .engine import Engine

                def fold(engine: Engine):
                    return engine.total
            """,
        })
        index = build_project_index(pkg)
        reads = index.reads["sim/batch.py"]
        assert ("SystemConfig", "knob_a") in reads
        assert ("SystemConfig", "knob_b") in reads

    def test_call_graph_edges(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "sim/engine.py": """
                def leaf():
                    return 1

                def caller():
                    return leaf()
            """,
        })
        index = build_project_index(pkg)
        assert "sim/engine.py::leaf" in index.edges["sim/engine.py::caller"]


# ----------------------------------------------------------------------
# RPR008 on synthetic trees
# ----------------------------------------------------------------------
class TestConfigParitySynthetic:
    def files(self, batch_body):
        return {
            "core/params.py": PARAMS,
            "sim/engine.py": """
                from ..core.params import SystemConfig

                class Engine:
                    def __init__(self, config: SystemConfig):
                        self.a = config.knob_a
                        self.b = config.knob_b
            """,
            "sim/batch.py": batch_body,
        }

    def test_missing_read_fires(self, tmp_path):
        pkg = make_pkg(tmp_path, self.files("""
            _BATCH_IRRELEVANT_FIELDS = {}

            def fold(config):
                return config.knob_a
        """))
        findings = check_config_read_parity(pkg)
        assert len(findings) == 1
        assert "SystemConfig.knob_b" in findings[0].message

    def test_declaration_covers_gap(self, tmp_path):
        pkg = make_pkg(tmp_path, self.files("""
            _BATCH_IRRELEVANT_FIELDS = {
                "SystemConfig.knob_b": "constant-folded at build time",
            }

            def fold(config):
                return config.knob_a
        """))
        assert check_config_read_parity(pkg) == []

    def test_derived_attr_covered_by_field_closure(self, tmp_path):
        # Scalar reads the derived property; batch reads the underlying
        # fields — closure expansion must call that parity.
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/engine.py": """
                from ..core.params import ProtocolCosts

                class Engine:
                    def __init__(self, costs: ProtocolCosts):
                        self.pen = costs.reload_us
            """,
            "sim/batch.py": """
                from ..core.params import ProtocolCosts

                _BATCH_IRRELEVANT_FIELDS = {}

                def fold(costs: ProtocolCosts):
                    return costs.t_cold_us - costs.t_warm_us
            """,
        })
        assert check_config_read_parity(pkg) == []


# ----------------------------------------------------------------------
# RPR009 on synthetic trees
# ----------------------------------------------------------------------
class TestRngProvenanceSynthetic:
    def test_blessed_and_unblessed_draws(self, tmp_path):
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/rng.py": RNG,
            "sim/engine.py": """
                import numpy as np
                from .rng import RandomStreams
                from ..core.params import SystemConfig

                class Engine:
                    def __init__(self, config: SystemConfig):
                        self.rngs = RandomStreams(config.seed)

                    def pick(self):
                        return self.rngs.stream().integers(0, 4)

                    def smuggled(self):
                        rng = np.random.default_rng(0)
                        return rng.integers(0, 4)
            """,
        })
        findings = check_rng_provenance(pkg)
        assert len(findings) == 1
        assert findings[0].line > 0
        assert "constructed outside sim/rng.py" in findings[0].message

    def test_parameter_traces_through_call_sites(self, tmp_path):
        # util.sample draws on its parameter; provenance depends on what
        # each result-affecting caller passes in.
        pkg = make_pkg(tmp_path, {
            "core/params.py": PARAMS,
            "sim/rng.py": RNG,
            "sim/util.py": """
                def sample(rng):
                    return rng.integers(0, 4)
            """,
            "sim/engine.py": """
                import numpy as np
                from .rng import RandomStreams
                from .util import sample
                from ..core.params import SystemConfig

                class Engine:
                    def __init__(self, config: SystemConfig):
                        self.rngs = RandomStreams(config.seed)

                    def good(self):
                        return sample(self.rngs.stream())

                    def bad(self):
                        return sample(np.random.default_rng(3))
            """,
        })
        findings = check_rng_provenance(pkg)
        assert len(findings) == 1
        assert "sim/util.py" in findings[0].path.replace("\\", "/")
        assert "flowing into parameter 'rng'" in findings[0].message

    def test_uncalled_library_function_is_vacuous(self, tmp_path):
        # A draw on a parameter nobody (result-affecting) calls cannot be
        # proven wrong — stays silent rather than crying wolf.
        pkg = make_pkg(tmp_path, {
            "sim/util.py": """
                def sample(rng):
                    return rng.integers(0, 4)
            """,
        })
        assert check_rng_provenance(pkg) == []

    def test_identity_helper_preserves_provenance(self, tmp_path):
        # The `rng = _check(rng)` idiom must not launder the parameter
        # atom away (the cache/traces.py pattern).
        pkg = make_pkg(tmp_path, {
            "sim/util.py": """
                def _check(rng):
                    if rng is None:
                        raise ValueError("rng required")
                    return rng

                def sample(rng):
                    rng = _check(rng)
                    return rng.integers(0, 4)
            """,
        })
        assert check_rng_provenance(pkg) == []


# ----------------------------------------------------------------------
# The real tree, through the public checkers
# ----------------------------------------------------------------------
class TestRealTree:
    def test_real_package_is_parity_clean(self):
        pkg = REPO / "src" / "repro"
        index = build_project_index(pkg)
        assert check_config_read_parity(pkg, index=index) == []
        assert check_rng_provenance(pkg, index=index) == []

    def test_real_tree_draw_sites_found(self):
        # The substrate must actually *see* the known draw surface —
        # guard against the analysis silently going blind.
        pkg = REPO / "src" / "repro"
        index = build_project_index(pkg)
        draw_files = {s.relpath for s in index.draw_sites}
        assert "sim/dispatch.py" in draw_files     # random_choice
        assert "cache/traces.py" in draw_files     # trace generators
        scalar_reads = index.reads.get("sim/batch.py", {})
        assert ("SystemConfig", "fixed_overhead_us") in scalar_reads
        assert ("ProtocolCosts", "t_warm_us") in scalar_reads
