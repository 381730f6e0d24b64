"""The wall-clock benchmark's name contract, checked in tier-1.

``benchmarks/wallclock/spans.py`` measures the layers from outside: it
replaces functions under ``src/`` *by name* (class attributes, and every
``from x import fn`` binding in a ``repro`` module).  A rename or a
de-duplicated import therefore changes what the traced pass covers
without any test under ``tests/`` noticing — ``testpaths`` never
collects ``benchmarks/wallclock``.  This reads the benchmark; it changes
nothing there.
"""

from pathlib import Path

WALLCLOCK = Path(__file__).resolve().parents[1] / "benchmarks" / "wallclock"


def test_every_span_target_resolves_and_the_floor_holds(monkeypatch):
    monkeypatch.syspath_prepend(str(WALLCLOCK))
    import spans

    targets = spans.targets()
    for layer, owner, name in targets:
        stored = owner if isinstance(owner, dict) else vars(owner)
        assert callable(stored.get(name)), (layer, owner, name)
    # The floor lives in benchmarks/wallclock/test_spans.py
    # (test_install_wraps_every_target_and_uninstall_restores_them).
    assert len(targets) > 100
