"""Every function the benchmark's tracer wraps still exists.

``bench/layers.py`` names the package functions it traces in ``TARGETS``;
a renamed or deleted one otherwise shows only in a traced benchmark run.
The module is loaded from its file and not changed.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def _target(module, cls, attr):
    owner = importlib.import_module(f"brownmin.{module}")
    return vars(getattr(owner, cls))[attr] if cls else getattr(owner, attr)


def test_every_traced_target_resolves_and_installs():
    layers = _load_layers()
    before = {t: _target(*t) for t in layers.TARGETS}
    with layers.Tracer().install():
        assert all(_target(*t) is not before[t] for t in layers.TARGETS)
    assert all(_target(*t) is before[t] for t in layers.TARGETS)
