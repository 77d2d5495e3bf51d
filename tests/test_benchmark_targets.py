"""The traced benchmark (`perfbench/`) wraps groundbound functions by name;
a renamed or removed target makes the traced run fail with AttributeError."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers.py imports tracer.py
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for module_name, qualname, _ in layers.TARGETS:
        target = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, qualname)


def test_per_pair_layer_names_stay_importable():
    # the per-pair certificate replaced their work in the search, but the
    # benchmark still reports these layers
    from groundbound import pairs

    for name in ("survives", "pair_report", "certified_floor_ratio"):
        assert callable(getattr(pairs, name)), name
