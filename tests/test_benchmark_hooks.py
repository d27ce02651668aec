"""The benchmark tracer (perfbench/tracer.py) wraps library functions by name.
These tests fail when one of them is renamed or deleted, instead of a traced
benchmark run breaking later. The tracer source is only read, never changed.
"""

import importlib
import os
import runpy
import time

from scanpose import cli, pipeline, training

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
MODULES = ("autodiff", "evalsim", "geometry", "pipeline", "ssm", "tokens", "training")


def load_tracer():
    # run_path compiles the source without writing bytecode next to it
    return runpy.run_path(TRACER)


def test_tracer_entry_points_exist():
    entry_points = load_tracer()["ENTRY_POINTS"]
    missing = [f"scanpose.{module}.{attr}" for module, attr, _ in entry_points
               if not hasattr(importlib.import_module(f"scanpose.{module}"), attr)]
    assert entry_points and not missing, f"the tracer wraps missing names: {missing}"


def test_tracer_installs_and_restores():
    tracing = load_tracer()
    modules = {m: importlib.import_module(f"scanpose.{m}") for m in MODULES}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracing["ENTRY_POINTS"]}
    tracer = tracing["Tracer"](modules)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(getattr(modules[m], a) is fn for (m, a), fn in before.items())


def traced_scene_loss():
    """One traced scene_loss and backward on a two-layer tiny config; returns
    (tracer module namespace, per-op results, parameter tensors, config)."""
    tracing = load_tracer()
    modules = {m: importlib.import_module(f"scanpose.{m}") for m in MODULES}
    cfg = cli.RunConfig.from_doc({
        "seed": 7, "num_scenes": 1,
        "scene": {"num_actors": 1, "num_cameras": 3, "image_width": 64,
                  "image_height": 48, "num_joints": 6, "feature_dim": 8},
        # two layers: the second projects the first one's tracked geometry
        "pipeline": {"num_layers": 2, "num_tokens": 6, "num_points": 2,
                     "d_state": 2, "head_hidden": 8, "ffn_hidden": 8}})
    (scene,) = cli.build_scenes(cfg)
    tensors = pipeline.params_to_tensors(pipeline.init_params(cfg.pipeline, cfg.seed))
    tracer = tracing["Tracer"](modules)
    tracer.install()
    try:
        start = time.perf_counter()
        total, _, _ = training.scene_loss(tensors, scene, cfg.pipeline, cfg.train)
        total.backward()
        per_op = tracer.per_op(1, time.perf_counter() - start)
    finally:
        tracer.uninstall()
    return tracing, per_op, tensors, cfg


def test_tracer_sees_the_tape():
    """Every graph node is made through autodiff.from_op, so the tracer
    counts the tape and times the four primitives' backward closures."""
    tracing, per_op, tensors, _ = traced_scene_loss()
    assert per_op["autodiff.tape_nodes"] > 0
    for primitive in tracing["PRIMITIVES"]:
        assert per_op[primitive + ".bwd.calls"] > 0, primitive
    assert all(tensors[k].grad is not None for k in ("layer0.head_w1", "layer0.A"))


def test_tracer_sees_the_solve():
    """The pipeline's triangulation runs under the name the tracer wraps:
    one factorization per layer."""
    _, per_op, _, cfg = traced_scene_loss()
    assert per_op["geometry.triangulate_batch.calls"] == cfg.pipeline.num_layers
    assert per_op["geometry.factorizations"] == cfg.pipeline.num_layers


def test_tracer_counts_one_sampling_call_per_layer():
    """bilinear_op samples every view and level of a layer in one call, and
    the tracer's sample counter still reads every position: T·n·J·S·P per
    layer."""
    _, per_op, _, cfg = traced_scene_loss()
    pipe = cfg.pipeline
    assert per_op["pipeline.bilinear.calls"] == pipe.num_layers
    assert per_op["pipeline.bilinear.samples"] == (
        pipe.num_layers * cfg.scene.num_cameras * pipe.num_tokens * pipe.num_joints
        * pipe.num_scales * pipe.num_points)
