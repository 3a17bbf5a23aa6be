"""The benchmark's tracer must find every function its layer metrics read.

``bench/tracer.py`` rebinds functions by module and name (``cli.run_pretrain``,
``cli.save_checkpoint``, ``improve.plan``, ...). Moving a stage or an import
out of the module the benchmark names would leave a layer metric without a
wrapper; this test fails then, without a traced benchmark run.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_layer_source():
    tracer, layers = load("tracer"), load("layers")
    t = tracer.Tracer()
    t.install()
    try:
        bound = {b for bindings in t.bindings.values() for b in bindings}
    finally:
        t.uninstall()
    # parse_ast is read through its cache_info(), not through a wrapper.
    sources = {row[2] for row in layers.PER_LAYER.values()} - {None, "world.parse_ast"}
    assert sources <= bound, sorted(sources - bound)
