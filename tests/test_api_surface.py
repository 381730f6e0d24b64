"""Public-API snapshot: the ``__all__`` of ``repro.algorithms``,
``repro.models``, ``repro.theory``, ``repro.pebbling``, ``repro.smpi``,
``repro.kernels``, ``repro.layouts``, ``repro.harness`` and
``repro.service``, the signature of every callable they export, of
every public :class:`~repro.smpi.Comm` method (rank programs are
written against them) and of every ``SPECS`` factory, and both
registries' declared capabilities, must match the checked-in snapshot.

Changing the public surface is allowed — but it has to be deliberate:
regenerate ``tests/data/api_surface.json`` in the same commit
(``PYTHONPATH=src python -m tests.test_api_surface``) and the diff
will show exactly what was added, removed or re-declared, down to one
parameter.
"""

import inspect
import json
from pathlib import Path

import repro.algorithms as alg
import repro.harness as harness
import repro.kernels as kernels
import repro.layouts as layouts
import repro.models as models
import repro.pebbling as pebbling
import repro.service as service
import repro.smpi as smpi
import repro.theory as theory
from repro.algorithms.api import KINDS, GRID_FAMILIES, REGISTRY
from repro.harness.specs import SPECS
from repro.models.api import MODEL_REGISTRY
from repro.models.machines import MACHINES

SNAPSHOT = Path(__file__).parent / "data" / "api_surface.json"

#: Packages whose ``__all__`` is snapshotted under ``"<name>_all"``.
PACKAGES = {
    "theory": theory,
    "pebbling": pebbling,
    "smpi": smpi,
    "kernels": kernels,
    "layouts": layouts,
    "harness": harness,
    "service": service,
}


def _signatures() -> dict:
    """``str(inspect.signature(...))`` of every callable in the
    snapshotted ``__all__`` lists (an exception class without its own
    ``__init__`` has none), of every public ``Comm`` method and of
    every ``SPECS`` factory."""
    out = {}
    for name, package in {
        "algorithms": alg, "models": models, **PACKAGES
    }.items():
        for symbol in package.__all__:
            obj = getattr(package, symbol)
            if not callable(obj):
                continue
            try:
                sig = inspect.signature(obj)
            except ValueError:
                continue
            out[f"repro.{name}.{symbol}"] = str(sig)
    for name, method in vars(smpi.Comm).items():
        if callable(method) and not name.startswith("_"):
            out[f"repro.smpi.Comm.{name}"] = str(inspect.signature(method))
    for name, factory in SPECS.items():
        out[f"SPECS[{name!r}]"] = str(inspect.signature(factory))
    return dict(sorted(out.items()))


def _current_surface() -> dict:
    return {
        "all": list(alg.__all__),
        "registry": {
            name: {
                "kind": info.kind,
                "grid_family": info.grid_family,
                "block_param": info.block_param,
            }
            for name, info in sorted(REGISTRY.items())
        },
        "models_all": list(models.__all__),
        "model_registry": {
            name: {"kind": info.kind}
            for name, info in sorted(MODEL_REGISTRY.items())
        },
        "machines": sorted(MACHINES),
        **{
            f"{name}_all": list(package.__all__)
            for name, package in PACKAGES.items()
        },
        "signatures": _signatures(),
    }


def test_public_surface_matches_snapshot():
    snap = json.loads(SNAPSHOT.read_text())
    current = _current_surface()
    assert current["all"] == snap["all"], (
        "repro.algorithms.__all__ changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["registry"] == snap["registry"], (
        "registry capabilities changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["models_all"] == snap["models_all"], (
        "repro.models.__all__ changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    assert current["model_registry"] == snap["model_registry"], (
        "model registry capabilities changed; if intentional, "
        "regenerate tests/data/api_surface.json"
    )
    assert current["machines"] == snap["machines"], (
        "machine presets changed; if intentional, regenerate "
        "tests/data/api_surface.json"
    )
    for name in PACKAGES:
        key = f"{name}_all"
        assert current[key] == snap.get(key), (
            f"repro.{name}.__all__ changed; if intentional, "
            "regenerate tests/data/api_surface.json"
        )
    changed = {
        name: (snap["signatures"].get(name), sig)
        for name, sig in current["signatures"].items()
        if snap["signatures"].get(name) != sig
    }
    gone = set(snap["signatures"]) - set(current["signatures"])
    assert not changed and not gone, (
        f"signatures changed {changed}, removed {sorted(gone)}; if "
        "intentional, regenerate tests/data/api_surface.json"
    )


def test_all_is_sorted_and_importable():
    assert list(alg.__all__) == sorted(alg.__all__)
    for name in alg.__all__:
        assert getattr(alg, name, None) is not None, name


def test_models_all_is_sorted_and_importable():
    assert list(models.__all__) == sorted(models.__all__)
    for name in models.__all__:
        assert getattr(models, name, None) is not None, name


def test_model_registry_entries_are_well_formed():
    for info in MODEL_REGISTRY.values():
        assert info.kind in ("lu", "qr")
        assert callable(info.total_bytes)
        assert callable(info.as_run)


def test_registry_entries_are_well_formed():
    for name, info in REGISTRY.items():
        assert info.name == name
        assert info.kind in KINDS
        assert info.grid_family in GRID_FAMILIES
        assert info.description
        assert callable(info.program)
        assert callable(info.assemble)
        assert info.default_block >= 1


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(_current_surface(), indent=2,
                                   sort_keys=True))
