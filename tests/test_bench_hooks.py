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


def test_tracer_walks_the_search_tree(small_world, small_models, small_data):
    # ``--trace 1`` wraps SearchTree.expand and best_partial_route on the
    # class and sizes the last tree from ``tree.root`` down ``.children``.
    from retroloop.planner import SearchTree, ZeroEstimator

    tracer = load("tracer")
    assert {"expand", "best_partial_route"} <= vars(SearchTree).keys()
    backward, _, _ = small_models
    target = max(small_data.targets, key=lambda t: (len(t.text), t.text))
    tree = SearchTree(target, backward, ZeroEstimator(), 10, small_world)
    while step := tree.best_partial_route():
        tree.expand(step[0][0])
    assert step == []  # solved
    assert len(tree.rxn_cost) > 1 and tree.call_count > 1  # multi-step
    assert tracer._tree_size(tree) == len(tree.mol_molecule) + len(tree.rxn_cost)


def test_traced_counters_see_backward_and_featurize(small_world, small_models):
    # ``world.template_backward.*`` counts Template.backward through a class
    # wrapper, and ``model.featurize_molecule.*`` spans featurize_molecule
    # by module binding. World.applications must call backward once per
    # firing template, and a memo miss must still featurize through
    # ``model.featurize_molecule``, or ``--trace 1`` reads zero there.
    from dataclasses import replace

    from retroloop.model import likelihood, predict_topk
    from retroloop.world import make_reaction, mol

    tracer = load("tracer")
    products = [mol("((a+b)*c)"), mol("(a*b)"), mol("a")]
    t = tracer.Tracer()
    t.install()
    try:
        for product in products:
            before = t.counts["backward.calls"]
            apps = small_world.applications(product)
            assert apps and t.counts["backward.calls"] - before == len(apps)
        model = replace(small_models[0])
        for _ in range(2):
            for product in products:
                predict_topk(model, product, 10, small_world)
                for tid, reactants in small_world.applications(product):
                    likelihood(model, make_reaction(product, reactants, tid), small_world)
    finally:
        t.uninstall()
    featurized = [span for span in t.spans if span[0] == "model.featurize_molecule"]
    assert len(featurized) == len(products)  # each product once, on its first miss
    assert t.featurized == {p.text for p in products}
