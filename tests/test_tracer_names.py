"""The benchmark's layer tracer (perfbench/layers.py) patches hobs functions by name.

Constructing a Tracer resolves every name it patches through
`owner.__dict__[name]` and installs nothing, so a refactor that drops or
moves one of them fails here, and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_tracer_resolves_every_patched_name():
    spec = importlib.util.spec_from_file_location("hobs_tests_perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer()
    assert len(tracer._patches) == len(layers.SPANS) + len(layers.COUNTS)
    for owner, name, original, _ in tracer._patches:
        assert owner.__dict__[name] is original  # resolved, not installed
