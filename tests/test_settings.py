"""Tests for the unified environment settings and engine selection.

``repro.config.Settings`` is the package's single reader of the
``REPRO_*`` environment; ``repro.config.Engine`` is the single
validator of fast/reference engine literals. Garbage in either place
must raise :class:`~repro.errors.ConfigError` naming the offender.
"""

import pytest

from repro.config import Engine, Settings
from repro.errors import ConfigError

from .helpers import synthetic_context


class TestSettings:
    def test_defaults_with_empty_environment(self):
        s = Settings.from_env({})
        assert s.seed == 0
        assert s.jobs is None
        assert s.cell_timeout is None
        assert s.cache_dir is None
        assert s.trace is None
        assert s.metrics is None

    def test_blank_values_mean_unset(self):
        s = Settings.from_env(
            {"REPRO_JOBS": "  ", "REPRO_SEED": "", "REPRO_TRACE": " "}
        )
        assert s.jobs is None
        assert s.seed == 0
        assert s.trace is None

    def test_valid_values_parse(self):
        s = Settings.from_env(
            {
                "REPRO_SEED": "-3",
                "REPRO_JOBS": "4",
                "REPRO_CELL_TIMEOUT": "1.5",
                "REPRO_CACHE_DIR": "/tmp/cache",
                "REPRO_TRACE": "/tmp/t.json",
                "REPRO_METRICS": "/tmp/m.txt",
            }
        )
        assert s.seed == -3
        assert s.jobs == 4
        assert s.cell_timeout == 1.5
        assert s.cache_dir == "/tmp/cache"
        assert s.trace == "/tmp/t.json"
        assert s.metrics == "/tmp/m.txt"

    @pytest.mark.parametrize(
        "name",
        ["REPRO_JOBS", "REPRO_SERVE_MAX_BODY"],
    )
    @pytest.mark.parametrize("bad", ["banana", "1.5", "0", "-2"])
    def test_garbage_ints_name_the_variable(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            Settings.from_env({name: bad})

    @pytest.mark.parametrize("bad", ["soon", "0", "-1"])
    def test_garbage_timeout_names_the_variable(self, bad):
        with pytest.raises(ConfigError, match="REPRO_CELL_TIMEOUT"):
            Settings.from_env({"REPRO_CELL_TIMEOUT": bad})

    def test_garbage_seed_names_the_variable(self):
        with pytest.raises(ConfigError, match="REPRO_SEED"):
            Settings.from_env({"REPRO_SEED": "zero"})

    def test_reads_real_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEED", "7")
        monkeypatch.setenv("REPRO_JOBS", "2")
        s = Settings.from_env()
        assert s.seed == 7
        assert s.jobs == 2

    def test_frozen(self):
        s = Settings.from_env({})
        with pytest.raises(AttributeError):
            s.seed = 1


class TestEngine:
    def test_choices(self):
        assert Engine.FAST == "fast"
        assert Engine.REFERENCE == "reference"
        assert Engine.CHOICES == ("fast", "reference")

    def test_validate_accepts_known(self):
        assert Engine.validate("fast") == "fast"
        assert Engine.validate("reference") == "reference"

    def test_accelerated_split(self):
        assert Engine.accelerated("fast")
        assert not Engine.accelerated("reference")

    def test_batch_literal_is_gone(self):
        from repro.model import make_default_workload, run_model

        workload = make_default_workload(["xapian"], mix_seed=0)
        with pytest.raises(ConfigError) as info:
            run_model(design="Static", workload=workload, engine="batch")
        assert "'fast'" in str(info.value)
        assert "'reference'" in str(info.value)

    def test_validate_rejects_unknown_naming_source(self):
        with pytest.raises(ConfigError, match="run_model"):
            Engine.validate("turbo", source="run_model")
        # ConfigError subclasses ValueError, so seed-era except clauses
        # and pytest.raises(ValueError) both still hold.
        with pytest.raises(ValueError, match="engine"):
            Engine.validate("turbo")

    def test_placement_context_validates_engine(self):
        ctx = synthetic_context()
        assert ctx.engine == Engine.FAST
        with pytest.raises(ConfigError, match="PlacementContext"):
            PlacementContextWithEngine = type(ctx)
            PlacementContextWithEngine(
                config=ctx.config,
                noc=ctx.noc,
                vms=ctx.vms,
                apps=ctx.apps,
                lat_sizes=dict(ctx.lat_sizes),
                engine="turbo",
            )
