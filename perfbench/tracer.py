"""Layer spans and counters recorded from outside the library.

`Tracer.install()` replaces public entry points of the scanpose modules with
timing wrappers and `uninstall()` puts the originals back; the library itself
is not edited. Internal calls go through module attributes (for example
`refine_layer` looks up `bilinear_op` in the pipeline module), so they are
timed too.

Spans nest. Each span adds its duration to its name's inclusive time and its
duration minus the time of its child spans to its self time. The backward
closures of the four pipeline primitives are wrapped when the tape records
them, so their time appears under `autodiff.backward` as `<primitive>.bwd`.
Spans and counters stay in memory; `per_op` turns them into per-op values.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, attribute, span name)
ENTRY_POINTS = (
    ("pipeline", "params_to_tensors", "pipeline.params_to_tensors"),
    ("pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("pipeline", "refine_layer", "pipeline.refine_layer"),
    ("pipeline", "project_op", "pipeline.project"),
    ("pipeline", "bilinear_op", "pipeline.bilinear"),
    ("pipeline", "selective_scan_op", "pipeline.scan"),
    ("pipeline", "triangulate_op", "pipeline.triangulate"),
    ("ssm", "selective_scan_batch", "ssm.scan_fwd"),
    ("geometry", "triangulate_batch", "geometry.triangulate_batch"),
    ("geometry", "triangulation_jacobian_batch", "geometry.jacobian_batch"),
    ("tokens", "nms_keep_mask", "tokens.nms"),
    ("evalsim", "generate_scene", "evalsim.generate_scene"),
    ("evalsim", "render_pyramids", "evalsim.render"),
    ("evalsim", "evaluate", "evalsim.evaluate"),
    ("training", "scene_loss", "training.scene_loss"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "evaluate_model", "training.evaluate_model"),
)

# primitives whose backward closure gets a span of its own
PRIMITIVES = ("pipeline.project", "pipeline.bilinear", "pipeline.scan",
              "pipeline.triangulate")

SPAN_NAMES = tuple(name for _, _, name in ENTRY_POINTS) + (
    "autodiff.backward",) + tuple(p + ".bwd" for p in PRIMITIVES)

# spans that contain other spans, so their self time differs from their time
PARENT_SPANS = ("pipeline.run_pipeline", "pipeline.refine_layer",
                "pipeline.scan", "pipeline.triangulate",
                "pipeline.triangulate.bwd", "evalsim.generate_scene",
                "autodiff.backward", "training.scene_loss",
                "training.evaluate_model")


def _count_bilinear(counts, args, result):
    counts["pipeline.bilinear.samples"] += args[1].data.size // 2


def _count_scan(counts, args, result):
    batch, steps = args[0].data.shape[:2]
    counts["pipeline.scan.steps"] += batch * steps


def _count_project(counts, args, result):
    valid = result[1]
    counts["anchors.valid"] += int(valid.sum())
    counts["anchors.total"] += valid.size


def _count_triangulate(counts, args, result):
    ok = result[1]
    counts["triangulate.ok"] += int(ok.sum())
    counts["triangulate.total"] += ok.size


def _count_scan_cache(counts, args, result):
    counts["ssm.cache_bytes"] += sum(v.nbytes for v in result[1].values())


def _count_tokens(counts, args, result):
    outputs, geom0 = result
    counts["tokens.kept"] += len(outputs[-1].kept)
    counts["tokens.initial"] += len(geom0)


AFTER = {
    "pipeline.bilinear": _count_bilinear,
    "pipeline.scan": _count_scan,
    "pipeline.project": _count_project,
    "pipeline.triangulate": _count_triangulate,
    "ssm.scan_fwd": _count_scan_cache,
    "pipeline.run_pipeline": _count_tokens,
}


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules  # short name -> imported module
        self._saved = []
        self._stack = []  # [name, start, child time]
        self.reset()

    def reset(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.covered = 0.0  # time inside at least one span

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.time[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.covered += duration

    def _wrap(self, name, fn):
        after = AFTER.get(name)

        def wrapped(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapped

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for module, attr, name in ENTRY_POINTS:
            owner = self._modules[module]
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        ad = self._modules["autodiff"]
        self._patch(ad.Tensor, "backward",
                    self._wrap("autodiff.backward", ad.Tensor.backward))
        from_op = ad.from_op

        def traced_from_op(data, parents, backward):
            self.counts["autodiff.tape_nodes"] += 1
            if self._stack and self._stack[-1][0] in PRIMITIVES:
                backward = self._wrap(self._stack[-1][0] + ".bwd", backward)
            return from_op(data, parents, backward)

        self._patch(ad, "from_op", traced_from_op)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def per_op(self, num_ops: int, wall_s: float) -> dict:
        """Per-op means over `num_ops` ops that took `wall_s` seconds in
        total, keyed by per-layer metric name."""
        n = max(num_ops, 1)
        c = self.counts
        out = {}
        for name in SPAN_NAMES:
            out[name + "_ms"] = 1e3 * self.time[name] / n
            out[name + ".calls"] = self.calls[name] / n
        for name in PARENT_SPANS:
            out[name + ".self_ms"] = 1e3 * self.self_time[name] / n
        # per rendered scene, so train set-up and eval ops compare directly
        out["evalsim.render_ms"] = 1e3 * _ratio(self.time["evalsim.render"],
                                                self.calls["evalsim.render"])
        out["pipeline.bilinear.samples"] = c["pipeline.bilinear.samples"] / n
        out["pipeline.scan.steps"] = c["pipeline.scan.steps"] / n
        out["autodiff.tape_nodes"] = c["autodiff.tape_nodes"] / n
        out["ssm.cache_mb"] = c["ssm.cache_bytes"] / n / 2 ** 20
        out["geometry.factorizations"] = (
            self.calls["geometry.triangulate_batch"]
            + self.calls["geometry.jacobian_batch"]) / n
        out["pipeline.valid_anchor_ratio"] = _ratio(c["anchors.valid"],
                                                    c["anchors.total"])
        out["pipeline.triangulate.ok_ratio"] = _ratio(c["triangulate.ok"],
                                                      c["triangulate.total"])
        out["pipeline.tokens_kept_ratio"] = _ratio(c["tokens.kept"],
                                                   c["tokens.initial"])
        out["trace.uncovered_ratio"] = max(wall_s - self.covered, 0.0) / wall_s
        return out


def _ratio(num, den):
    return num / den if den else 0.0
