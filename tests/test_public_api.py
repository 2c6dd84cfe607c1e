"""Public API surface: everything advertised imports and works."""

import json

import pytest

import repro
from tests.adapters.test_worker_reuse import fresh_interpreter


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
        from repro.campaigns import Campaign  # noqa: F401
        from repro.core import PQSRunner  # noqa: F401
        from repro.dialects import get_dialect  # noqa: F401
        from repro.interp import make_interpreter  # noqa: F401
        from repro.minidb import Engine  # noqa: F401
        from repro.multiplan import MultiPlanOracle  # noqa: F401
        from repro.stategen import ActionGenerator  # noqa: F401
        # The packages that export lazily: in a fresh process, before
        # any name is used, dir() and ``import *`` see every name, and
        # each is the object its defining module holds.
        out = fresh_interpreter("""
            import importlib, json, types
            wrong = []
            for package in ("repro", "repro.adapters", "repro.campaigns",
                            "repro.interp", "repro.minidb", "repro.observe"):
                module = importlib.import_module(package)
                listed = dir(module)
                namespace = {}
                exec(f"from {package} import *", namespace)
                for name in module.__all__:
                    value = getattr(module, name)
                    if name not in listed:
                        wrong.append(f"{package}.{name}: not in dir()")
                    if namespace.get(name) is not value:
                        wrong.append(f"{package}.{name}: not starred")
                    if isinstance(value, (type, types.FunctionType)):
                        home = importlib.import_module(value.__module__)
                        if getattr(home, name, None) is not value:
                            wrong.append(f"{package}.{name}: not its home's")
            print(json.dumps(wrong))
        """)
        assert json.loads(out.splitlines()[-1]) == []

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
