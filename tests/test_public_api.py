"""Public API surface: everything advertised imports and works."""

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart_snippet_from_docstring(self):
        # The module docstring's snippet must actually run.
        result = repro.Campaign(
            repro.CampaignConfig(dialect="sqlite", seed=1,
                                 databases=5)).run()
        assert result.stats.databases == 5

    def test_error_hierarchy(self):
        assert issubclass(repro.DBError, Exception)
        assert issubclass(repro.DBCrash, BaseException)
        assert not issubclass(repro.DBCrash, Exception), \
            "crashes must not be swallowed by `except Exception`"
        assert issubclass(repro.PQSError, Exception)

    def test_subpackage_exports(self):
        from repro.campaigns import Campaign, RoundExecutor  # noqa: F401
        from repro.core import PQSRunner  # noqa: F401
        from repro.dialects import get_dialect  # noqa: F401
        from repro.interp import make_interpreter  # noqa: F401
        from repro.minidb import Engine  # noqa: F401
        from repro.multiplan import MultiPlanOracle  # noqa: F401
        from repro.stategen import ActionGenerator  # noqa: F401

    def test_bug_catalog_shape(self):
        for bug in repro.BUG_CATALOG.values():
            assert bug.dialect in ("sqlite", "mysql", "postgres")
            assert bug.oracle in ("contains", "error", "crash",
                                  "multiplan")
            assert bug.triage in ("fixed", "verified", "docs",
                                  "intended", "duplicate")
            assert bug.description and bug.paper_ref

    def test_engine_rejects_unknown_dialect(self):
        with pytest.raises(ValueError):
            repro.Engine("mongodb")

    def test_value_reexported(self):
        assert repro.Value.integer(1).v == 1
