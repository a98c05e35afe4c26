"""Every name the benchmark's timing wrappers patch exists in flightwatch.

``perfbench/instrument.py`` looks its targets up by name, so a renamed or
deleted function would only show when a ``--trace 1`` run fails.  This runs
its ``install`` against a tracer that records the targets instead of patching
them, and resolves each one the way the real tracer does.
"""

import importlib.util
from pathlib import Path

INSTRUMENT = Path(__file__).resolve().parent.parent / "perfbench" / "instrument.py"


def _load_instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _RecordingTracer:
    """Resolves every patch target without replacing it; collects the misses."""

    def __init__(self):
        self.missing = []
        self.raw = []

    def _check(self, target, where):
        if not callable(target):
            self.missing.append(where)

    def patch_function(self, module, attr, name, work=None):
        self._check(getattr(module, attr, None), f"{module.__name__}.{attr}")

    def patch_method(self, cls, attr, name, work=None):
        self._check(cls.__dict__.get(attr), f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def patch_instance(self, obj, attr, name, work=None, only_if=None):
        cls = type(obj)
        self._check(getattr(cls, attr, None), f"{cls.__module__}.{cls.__qualname__}.{attr}")

    def patch_raw(self, owner, attr, value):
        self._check(getattr(owner, attr, None), f"{owner.__name__}.{attr}")
        self.raw.append((owner, attr, value))


def test_every_patched_name_resolves():
    from flightwatch import autoenc

    tracer = _RecordingTracer()
    _load_instrument().install(tracer)
    # the model's replacement __init__ patches each layer instance by name
    traced_init = next(value for owner, attr, value in tracer.raw
                       if owner is autoenc.AutoencoderModel and attr == "__init__")
    traced_init(object.__new__(autoenc.AutoencoderModel), input_length=25, seed=0)
    assert not tracer.missing, f"perfbench patches names flightwatch lacks: {tracer.missing}"
