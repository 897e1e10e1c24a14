"""The end-to-end benchmark's layer map names only code that exists.

``benchmarks/e2e/layers.py`` wraps simulator functions by
``module:qualname`` strings, so a deletion in ``src/`` that leaves a
target behind would otherwise fail only the benchmark's own self-tests.
The map is read from its source file and executed in a fresh module
namespace: nothing is imported from ``benchmarks/``, and nothing is
written there.
"""

import types
from pathlib import Path

LAYERS_PY = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"
)


def _layer_map() -> types.ModuleType:
    module = types.ModuleType("e2e_layer_map")
    module.__file__ = str(LAYERS_PY)
    code = compile(LAYERS_PY.read_text(), str(LAYERS_PY), "exec")
    exec(code, module.__dict__)
    return module


def test_every_wrap_target_resolves():
    layers = _layer_map()
    targets = [t for group in layers.LAYERS.values() for t in group]
    targets += layers.COUNTED.values()
    targets += [layers.LEAN_FACTORY, layers.SYSTEM_INIT, layers.SIMULATE]
    assert targets
    assert [t for t in targets if layers.resolve(t) is None] == []
