"""The benchmark's tracer gives a span opened in a pool thread the call that
submitted the work as its parent, by swapping the ``ThreadPoolExecutor`` name
in each module that fans out per-item calls. This checks that every batch
still opens its pool through that name, so that every gateway call made by
a batch is traced under the batch's span. ``tracing.installed`` looks up
every name it wraps on entry (``Gateway.complete``,
``MockLLMBackend.generate``, ``builder.save_checkpoint`` and the rest), so a
rename of any of them fails this test too."""

from __future__ import annotations

from tagforge import assignment, freeform, refinement
from tagforge.mockllm import category_description
from tagforge.planted import make_world
from tagforge.vocab import DescriptorNode, VocabularyTree

from conftest import load_perfbench, make_gateway


def test_every_batch_call_is_traced_under_its_batch():
    tracing = load_perfbench("tracing")
    world = make_world(branching=(3,), n_items=60, seed=5)
    tree = VocabularyTree(root_items=set(world.corpus.item_ids))
    for name in world.taxonomy.level1:
        tree.add_child(tree.root_id, DescriptorNode(
            rule_id=tree.fresh_rule_id(tree.root_id, name), name=name,
            description=category_description(name), parent=tree.root_id,
            depth=1))
    items = list(world.corpus)
    gateway = make_gateway(world)
    tracer = tracing.Tracer(trace_id="contract")
    with tracing.installed(tracer):
        refinement.parallel_assign(items, tree.children_of(tree.root_id),
                                   gateway, parallelism=4)
        assignment.assign_paths(world.corpus, tree, gateway, parallelism=4)
        freeform.generate_freeform(world.corpus, gateway, parallelism=4)
    spans = tracing.SpanTree(tracer.spans)
    assert len(spans.named("gateway.complete")) == 180
    for batch in ("refinement.parallel_assign", "assignment.assign_paths",
                  "freeform.generate_freeform"):
        assert spans.under("gateway.complete", batch) == 60, batch
