"""The benchmark's tracer names the functions it wraps by module and
attribute path; a rename in src/entrolen would make its traced runs fail.
The tracer is loaded from its file and left unedited."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for metric, module, path, kind in tracer.TARGETS:
        assert module in tracer.MODULES, metric
        owner = importlib.import_module(f"entrolen.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            fn = getattr(owner, cls_name).__dict__.get(attr)
        else:
            fn = getattr(owner, path, None)
        assert callable(fn), f"{metric}: entrolen.{module}.{path} is gone"
        assert kind in ("span", "leaf"), metric
    # the act leaf counter reads the cocycle's is_plain attribute
    from entrolen.crossed_product import CocycleData

    assert "is_plain" in CocycleData.__slots__
