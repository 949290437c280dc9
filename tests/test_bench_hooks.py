"""The benchmark's traced run rebinds module-level names of the package
(``perfbench/tracing.py``); a refactor that drops one of them breaks
``perfbench/run.py --trace 1`` with an AttributeError."""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_rebound_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.REBOUND
    for module, attr in tracing.REBOUND:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
