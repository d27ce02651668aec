"""Batch front-end: scene generation, training, evaluation, ablation sweeps.

One JSON config file drives every command, with dotted --set overrides
(--set train.steps=100). Unknown keys are rejected before any output is
written. Exit codes: 0 ok, 2 config error, 3 runtime error. All outputs are
reproducible from (config, seed): containers and CSVs carry no timestamps,
and files are written atomically.

Config schema (defaults apply for missing fields)::

    {
      "seed": 7,
      "num_scenes": 10,
      "scene":    { ... SceneConfig fields ... },
      "pipeline": { ... PipelineConfig fields but those from_doc derives ... },
      "train":    { ... TrainConfig fields ... }
    }
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import evalsim, pipeline, training
from .container import atomic_write, build_dataclass, fits, load_json, require_keys, write_csv

class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunConfig:
    seed: int
    num_scenes: int
    scene: evalsim.SceneConfig
    pipeline: pipeline.PipelineConfig
    train: training.TrainConfig

    @staticmethod
    def from_doc(doc: dict) -> "RunConfig":
        known = {"seed", "num_scenes", "scene", "pipeline", "train"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")
        seed, num_scenes = doc.get("seed", 0), doc.get("num_scenes", 10)
        for key, value in (("seed", seed), ("num_scenes", num_scenes)):
            if not fits(value, 0):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if num_scenes < 0:
            raise ConfigError("num_scenes must be >= 0")
        scene = build_dataclass(evalsim.SceneConfig, doc.get("scene", {}), "scene")
        section = require_keys(doc.get("pipeline", {}), "pipeline")
        # the derived pipeline fields: each has one legal value, set from a source
        derived = {"num_joints": ("scene.num_joints", scene.num_joints),
                   "feature_dim": ("scene.feature_dim", scene.feature_dim),
                   "init_seed": ("seed", seed)}
        clashes = [f"pipeline.{key} (set from {derived[key][0]})"
                   for key in sorted(derived.keys() & section.keys())]
        if clashes:
            raise ConfigError(f"a run config cannot set {', '.join(clashes)}")
        pipe = build_dataclass(pipeline.PipelineConfig, {
            "ground_bounds": scene.ground_bounds, "num_scales": scene.num_scales,
            **section, **{key: value for key, (_, value) in derived.items()}}, "pipeline")
        if pipe.num_scales > scene.num_scales:
            raise ConfigError(f"pipeline.num_scales ({pipe.num_scales}) exceeds "
                              f"scene.num_scales ({scene.num_scales})")
        if pipe.num_tokens < scene.num_actors:
            raise ConfigError(f"pipeline.num_tokens ({pipe.num_tokens}) cannot host "
                              f"scene.num_actors ({scene.num_actors})")
        train = build_dataclass(training.TrainConfig, doc.get("train", {}), "train")
        return RunConfig(seed=seed, num_scenes=num_scenes, scene=scene,
                         pipeline=pipe, train=train)


def _apply_overrides(doc: dict, overrides) -> dict:
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part} is not a section")
        node[parts[-1]] = value
    return doc


def load_config(path: str, overrides=None, seed_override=None) -> RunConfig:
    try:
        doc = require_keys(load_json(path), path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    doc = _apply_overrides(doc, overrides)
    if seed_override is not None:
        doc["seed"] = seed_override
    try:
        return RunConfig.from_doc(doc)
    except ValueError as exc:  # a section that build_dataclass rejects
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# SVG line plots (no plotting dependency; deterministic output)
# ---------------------------------------------------------------------------

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def write_line_svg(path: str, series: dict, title: str, xlabel: str,
                   ylabel: str) -> None:
    """series: name -> (xs, ys). Lines share axes; NaNs are skipped."""
    width, height, margin = 640, 400, 56
    pts = [(x, y) for xs, ys in series.values() for x, y in zip(xs, ys)
           if np.isfinite(y)]
    if not pts:
        pts = [(0.0, 0.0), (1.0, 1.0)]
    xs_all = [p[0] for p in pts]
    ys_all = [p[1] for p in pts]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    rows = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 8}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="14" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height / 2:.1f})">{ylabel}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x_lo:.4g}</text>',
        f'<text x="{width - margin}" y="{height - margin + 16}" font-size="10" '
        f'text-anchor="middle">{x_hi:.4g}</text>',
        f'<text x="{margin - 4}" y="{height - margin}" font-size="10" '
        f'text-anchor="end">{y_lo:.4g}</text>',
        f'<text x="{margin - 4}" y="{margin + 4}" font-size="10" '
        f'text-anchor="end">{y_hi:.4g}</text>',
    ]
    for i, (name, (xs, ys)) in enumerate(sorted(series.items())):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}"
                          for x, y in zip(xs, ys) if np.isfinite(y))
        if coords:
            rows.append(f'<polyline points="{coords}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        rows.append(f'<text x="{width - margin + 4}" y="{margin + 14 * i + 10}" '
                    f'font-size="10" fill="{color}">{name}</text>')
    rows.append("</svg>")
    atomic_write(path, ("\n".join(rows) + "\n").encode())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def build_scenes(cfg: RunConfig):
    return [evalsim.generate_scene(cfg.scene, seed=cfg.seed + i)
            for i in range(cfg.num_scenes)]


def cmd_generate(cfg: RunConfig, out_dir: str) -> int:
    scenes = build_scenes(cfg)
    # --out appears only once every scene is built
    os.makedirs(out_dir, exist_ok=True)
    # each scene file holds its own seed and config; the manifest only lists them
    entries = [{"file": f"scene_{i:03d}.bin"} for i in range(len(scenes))]
    for scene, entry in zip(scenes, entries):
        evalsim.save_scene(scene, os.path.join(out_dir, entry["file"]))
    doc = {"kind": "scanpose-scene-set", "scenes": entries}
    atomic_write(os.path.join(out_dir, "scenes_manifest.json"),
                 json.dumps(doc, sort_keys=True).encode())
    print(f"wrote {len(entries)} scenes to {out_dir}")
    return 0


def load_scene_dir(path: str):
    manifest = os.path.join(path, "scenes_manifest.json")
    scenes = require_keys(load_json(manifest), manifest, "scanpose-scene-set", "scenes")["scenes"]
    if not isinstance(scenes, list):
        raise ValueError(f"{manifest}: \"scenes\" must be a list, got {type(scenes).__name__}")
    if not scenes:
        raise ValueError(f"{manifest} lists no scenes")
    files = [require_keys(e, manifest, None, "file")["file"] for e in scenes]
    for file in files:
        if not isinstance(file, str):
            raise ValueError(f"{manifest}: \"file\" must be a string, got {type(file).__name__}")
    return [evalsim.load_scene(os.path.join(path, file)) for file in files]


def load_scenes_for(config: pipeline.PipelineConfig, path: str, train: bool = False):
    """The scene set at path; a ValueError names the first scene the model cannot
    read or, to train on, has more actors than the model has tokens."""
    scenes = load_scene_dir(path)
    for i, scene in enumerate(scenes):
        try:
            pipeline.check_inputs(config, scene.pyramids, scene.gt_poses)
            if train and len(scene.gt_poses) > config.num_tokens:
                raise ValueError(f"{config.num_tokens} tokens cannot host "
                                 f"{len(scene.gt_poses)} actors")
        except ValueError as exc:
            raise ValueError(f"scene {i} of {path} (seed {scene.seed}): {exc}") from None
    return scenes


def cmd_train(cfg: RunConfig, out_dir: str, scenes_dir: str | None = None,
              resume: str | None = None) -> int:
    if scenes_dir is None and cfg.num_scenes < 1:
        raise ConfigError("train needs num_scenes >= 1")
    scenes = (load_scenes_for(cfg.pipeline, scenes_dir, train=True) if scenes_dir
              else build_scenes(cfg))
    initial_params = None
    prior_metrics = []
    if resume:
        initial_params, loaded_cfg, meta = pipeline.load_model(resume)
        if loaded_cfg != cfg.pipeline:
            raise ValueError("resume checkpoint was trained with a different "
                             "pipeline configuration")
        prior_metrics = training.metric_rows(meta, resume)
    # --out appears only once every input has loaded
    os.makedirs(out_dir, exist_ok=True)
    params, metrics = training.train(cfg.pipeline, scenes, rng_seed=cfg.seed,
                                     train_cfg=cfg.train,
                                     initial_params=initial_params,
                                     epoch_offset=len(prior_metrics))
    all_metrics = prior_metrics + metrics
    pipeline.save_model(os.path.join(out_dir, "model.bin"), params, cfg.pipeline,
                        extra_meta={"metrics": all_metrics})
    training.write_metrics_csv(os.path.join(out_dir, "metrics.csv"), all_metrics)
    epochs = [m["epoch"] for m in all_metrics]
    write_line_svg(
        os.path.join(out_dir, "loss_curve.svg"),
        {"pose_loss": (epochs, [m["pose_loss"] for m in all_metrics]),
         "cls_loss": (epochs, [m["cls_loss"] for m in all_metrics]),
         "val_mpjpe_mm": (epochs, [m["val_mpjpe_mm"] for m in all_metrics])},
        title="training curves", xlabel="epoch", ylabel="value")
    final = all_metrics[-1] if all_metrics else {}
    print(f"trained {cfg.train.steps} steps; final val_mpjpe_mm="
          f"{final.get('val_mpjpe_mm')} ap25={final.get('ap25')}")
    return 0


def cmd_eval(model_path: str, scenes_dir: str, out_dir: str,
             cameras=None) -> int:
    params, pipe_cfg, _ = pipeline.load_model(model_path)
    scenes = load_scenes_for(pipe_cfg, scenes_dir)
    os.makedirs(out_dir, exist_ok=True)
    camera_counts = cameras or [None]
    sweep = []
    for K in camera_counts:
        if K is None:
            eval_scenes = scenes
            tag = "default"
        else:
            eval_scenes = [evalsim.generate_scene(s.config, seed=s.seed,
                                                  num_cameras=K)
                           for s in scenes]
            tag = f"cam{K}"
        reports, _, _ = training.evaluate_model(params, pipe_cfg, eval_scenes)
        for i, rep in enumerate(reports):
            atomic_write(os.path.join(out_dir, f"report_{tag}_scene{i:03d}.json"),
                         (rep.to_json() + "\n").encode())
        names = [name for name, _ in reports[0].csv_rows()]
        table = [[v for _, v in rep.csv_rows()] for rep in reports]
        mean = {}
        for name, column in zip(names, zip(*table)):  # the mean skips non-finite values
            finite = [v for v in column if np.isfinite(v)]
            mean[name] = float(np.mean(finite)) if finite else float("nan")
        write_csv(os.path.join(out_dir, f"report_{tag}.csv"), ["scene"] + names,
                  [[i] + row for i, row in enumerate(table)] + [["mean", *mean.values()]])
        sweep.append((K, mean["mpjpe_mm"], mean["ap25"], mean["map"]))
        print(f"eval[{tag}]: mpjpe_mm={mean['mpjpe_mm']} ap25={mean['ap25']}")
    if len(sweep) >= 2:  # --cameras with two or more counts, all ints
        ks = [float(k) for k, *_ in sweep]
        _, _, aps, maps = zip(*sweep)
        write_line_svg(os.path.join(out_dir, "ap_vs_cameras.svg"),
                       {"ap25": (ks, aps), "map": (ks, maps)},
                       title="score vs camera count", xlabel="cameras",
                       ylabel="score")
        write_csv(os.path.join(out_dir, "sweep.csv"),
                  ["cameras", "mpjpe_mm", "ap25", "map"], sweep)
    return 0


def cmd_ablate(cfg: RunConfig, out_dir: str) -> int:
    if cfg.num_scenes < 1:
        raise ConfigError("ablate needs num_scenes >= 1")
    scenes = build_scenes(cfg)
    os.makedirs(out_dir, exist_ok=True)
    header = ["variant", "val_mpjpe_mm", "ap25", "pose_loss", "cls_loss"]
    rows = []
    for variant in pipeline.BLOCK_VARIANTS:
        pipe_cfg = dataclasses.replace(cfg.pipeline, block_variant=variant)
        params, metrics = training.train(pipe_cfg, scenes, rng_seed=cfg.seed,
                                         train_cfg=cfg.train)
        last = metrics[-1]
        rows.append({"variant": variant, **{k: last[k] for k in header[1:]}})
        print(f"ablate[{variant}]: val_mpjpe_mm={last['val_mpjpe_mm']}")
    write_csv(os.path.join(out_dir, "ablation.csv"), header,
              [[row[k] for k in header] for row in rows])
    atomic_write(os.path.join(out_dir, "ablation.json"),
                 (json.dumps(rows, sort_keys=True) + "\n").encode())
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scanpose",
        description="multi-view pose estimation on synthetic camera rigs")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", required=True, help="output directory")
    # eval reads no config, so it takes none of these options
    configured = argparse.ArgumentParser(add_help=False, parents=[common])
    configured.add_argument("--config", required=True)
    configured.add_argument("--seed", type=int, default=None,
                            help="override the config seed")
    configured.add_argument("--set", action="append", dest="overrides",
                            metavar="KEY=VALUE", help="config override (dotted keys)")

    sub.add_parser("generate", parents=[configured],
                   help="write synthetic scene files")

    tr = sub.add_parser("train", parents=[configured], help="train a model")
    tr.add_argument("--scenes", default=None,
                    help="use pre-generated scenes from this directory")
    tr.add_argument("--resume", default=None,
                    help="continue from a model container")

    ev = sub.add_parser("eval", parents=[common], help="evaluate a model")
    ev.add_argument("--model", required=True)
    ev.add_argument("--scenes", required=True)
    ev.add_argument("--cameras", default=None,
                    help="camera-count override(s), e.g. 3 or 3,5,7")

    sub.add_parser("ablate", parents=[configured],
                   help="train and compare all block variants")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "eval":
            cameras = None
            if args.cameras:
                try:
                    cameras = [int(k) for k in str(args.cameras).split(",")]
                except ValueError as exc:
                    raise ConfigError(f"--cameras: {exc}") from exc
                if any(k < 2 for k in cameras):
                    raise ConfigError("--cameras values must be >= 2")
            return cmd_eval(args.model, args.scenes, args.out, cameras=cameras)
        cfg = load_config(args.config, args.overrides, args.seed)
        if args.command == "generate":
            return cmd_generate(cfg, args.out)
        if args.command == "train":
            return cmd_train(cfg, args.out, scenes_dir=args.scenes,
                             resume=args.resume)
        return cmd_ablate(cfg, args.out)  # the parser admits no other command
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
