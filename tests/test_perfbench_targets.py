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


def test_counters_read_real_results():
    """The tracer's counter extractors read fields of the wrapped calls'
    arguments and results; run them on tiny real ones."""
    from entrolen.crossed_product import act, parse_element, trivial_cocycle
    from entrolen.entropy import addition_check, estimate, estimate_quotient
    from entrolen.exact_linalg import Echelon, PrimeField
    from entrolen.folner import Boxes
    from entrolen.groups import FreeAbelian, set_product
    from entrolen.shift_modules import _quotient_split, bernoulli, cyclic_presentation

    tracer = _load_tracer()
    gf3, Z = PrimeField(3), FreeAbelian(1)
    c = trivial_cocycle(gf3, Z)
    M = bernoulli(c, 1)
    N = cyclic_presentation(c, parse_element(gf3, Z, "2*(0) + 1*(1)"))
    scheme = Boxes(Z)
    split = _quotient_split(M, N, scheme.set_at(2))
    results = {
        "shift_modules.quotient_split": split,
        "entropy.estimate": estimate(M, scheme, 2),
        "entropy.estimate_quotient": estimate_quotient(M, N, scheme, 2),
        "entropy.addition_check": addition_check(M, N, scheme, 2, 1),
    }
    assert set(tracer.SPAN_COUNTERS) == set(results)
    assert set(results) <= {t[0] for t in tracer.TARGETS}
    for metric, result in results.items():
        counts = tracer.SPAN_COUNTERS[metric](result)
        if metric == "shift_modules.quotient_split":
            assert counts == {"growth_steps": split.steps, "stabilized": 1}
        else:
            assert counts == {"windows": 2}

    ech = Echelon(gf3)
    vec = {((0,), 0): 1, ((1,), 0): 2}
    leaves = tracer.LEAF_COUNTERS
    add_counts = leaves["exact_linalg.echelon_add"][1]
    assert add_counts((ech, vec), ech.add(vec)) == (1, 2, 2)
    assert leaves["crossed_product.act"][1](((1,), vec, c), act((1,), vec, c)) == (0,)
    A = scheme.set_at(1)
    assert leaves["groups.set_product"][1]((A, A), set_product(A, A)) == (9,)
