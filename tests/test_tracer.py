"""The benchmark's tracer wraps library entry points by name; removing it
must put every one of them back, and every name it wraps must exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_wrapped_attribute():
    tracer = load_tracer()
    t = tracer.Tracer()
    try:
        t.install()
        wrapped = list(t._undo)
        assert wrapped
        for owner, name, orig in wrapped:
            assert vars(owner)[name] is not orig
    finally:
        t.remove()
    for owner, name, orig in wrapped:
        assert vars(owner)[name] is orig
