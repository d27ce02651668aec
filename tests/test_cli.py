import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from scanpose import cli, container, evalsim, pipeline, training


def tiny_config_doc(**kw):
    doc = {
        "seed": 7,
        "num_scenes": 3,
        "scene": {"num_actors": 1, "num_cameras": 3, "image_width": 64,
                  "image_height": 48, "num_joints": 6, "feature_dim": 8,
                  "joint_noise_mm": 60.0},
        "pipeline": {"num_layers": 1, "num_tokens": 6, "num_points": 2,
                     "d_state": 2, "head_hidden": 8, "ffn_hidden": 8},
        "train": {"steps": 4, "learning_rate": 1e-3, "val_fraction": 0.34},
    }
    doc.update(kw)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(argv):
    return cli.main(argv)


def test_generate_is_idempotent_per_seed(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["generate", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["generate", "--config", cfg, "--out", str(out2)]) == 0
    m1 = (out1 / "scenes_manifest.json").read_bytes()
    m2 = (out2 / "scenes_manifest.json").read_bytes()
    assert m1 == m2
    for name in sorted(os.listdir(out1)):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_zero_scenes_ok(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=0))
    out = tmp_path / "empty"
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads((out / "scenes_manifest.json").read_text())
    assert doc == {"kind": "scanpose-scene-set", "scenes": []}
    assert os.listdir(out) == ["scenes_manifest.json"]


def test_generate_count_matches_request(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=4))
    out = tmp_path / "scenes"
    assert run(["generate", "--config", cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [f"scene_{i:03d}.bin" for i in range(4)] + [
        "scenes_manifest.json"]
    loaded = cli.load_scene_dir(str(out))
    assert len(loaded) == 4


def test_generate_rejects_workers_option(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    out = tmp_path / "scenes"
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--config", cfg, "--out", str(out), "--workers", "2"])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "train", "ablate"])
def test_failed_actor_placement_exits_3_and_writes_nothing(tmp_path, capsys, command):
    doc = tiny_config_doc()
    doc["scene"].update(num_actors=6, min_actor_spacing_mm=4000.0)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == 3
    assert "4000.0 mm" in capsys.readouterr().err
    assert not out.exists()


def test_train_zero_lr_keeps_initial_params(tmp_path):
    doc = tiny_config_doc()
    doc["train"]["learning_rate"] = 0.0
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run(["train", "--config", cfg, "--out", str(out)]) == 0
    params, pipe_cfg, meta = pipeline.load_model(str(out / "model.bin"))
    expect = pipeline.init_params(pipe_cfg, rng_seed=7)
    for k in expect:
        assert np.array_equal(params[k], expect[k])
    assert (out / "metrics.csv").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,pose_loss,cls_loss,val_mpjpe_mm,ap25"
    assert (out / "loss_curve.svg").exists()


def test_train_resume_continues_epoch_numbering(tmp_path):
    doc = tiny_config_doc(num_scenes=2)
    doc["train"]["steps"] = 2  # 1 train scene -> 2 epochs
    doc["train"]["val_fraction"] = 0.5
    cfg = write_config(tmp_path, doc)
    first = tmp_path / "first"
    assert run(["train", "--config", cfg, "--out", str(first)]) == 0
    rows = pipeline.load_model(str(first / "model.bin"))[2]["metrics"]
    assert [r["epoch"] for r in rows] == [0, 1]
    second = tmp_path / "second"
    assert run(["train", "--config", cfg, "--out", str(second),
                "--resume", str(first / "model.bin")]) == 0
    rows2 = pipeline.load_model(str(second / "model.bin"))[2]["metrics"]
    assert [r["epoch"] for r in rows2] == [0, 1, 2, 3]


def test_resume_from_a_copied_model_keeps_its_history(tmp_path):
    """The history travels in the model: resuming from a copy of model.bin in
    a directory without metrics.csv numbers on and keeps the earlier epochs,
    and metrics.csv is write_metrics_csv of the model's rows."""
    doc = tiny_config_doc(num_scenes=2)
    doc["train"]["steps"] = 2  # 1 train scene -> 2 epochs
    doc["train"]["val_fraction"] = 0.5
    cfg = write_config(tmp_path, doc)
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "first")]) == 0
    (tmp_path / "copy").mkdir()
    copy = tmp_path / "copy" / "model.bin"
    copy.write_bytes((tmp_path / "first" / "model.bin").read_bytes())
    second = tmp_path / "second"
    assert run(["train", "--config", cfg, "--out", str(second), "--resume", str(copy)]) == 0
    written = (second / "metrics.csv").read_bytes()
    assert [line.split(b",")[0] for line in written.splitlines()[1:]] == [
        b"0", b"1", b"2", b"3"]
    rows = pipeline.load_model(str(second / "model.bin"))[2]["metrics"]
    assert [r["epoch"] for r in rows] == [0, 1, 2, 3]
    training.write_metrics_csv(str(tmp_path / "expected.csv"), rows)
    assert written == (tmp_path / "expected.csv").read_bytes()


def test_eval_reports_match_library_oracle(tmp_path):
    cfg_doc = tiny_config_doc()
    cfg = write_config(tmp_path, cfg_doc)
    scenes_dir = tmp_path / "scenes"
    run_dir = tmp_path / "run"
    eval_dir = tmp_path / "eval"
    assert run(["generate", "--config", cfg, "--out", str(scenes_dir)]) == 0
    assert run(["train", "--config", cfg, "--out", str(run_dir),
                "--scenes", str(scenes_dir)]) == 0
    assert run(["eval", "--model", str(run_dir / "model.bin"),
                "--scenes", str(scenes_dir), "--out", str(eval_dir)]) == 0
    params, pipe_cfg, _ = pipeline.load_model(str(run_dir / "model.bin"))
    scenes = cli.load_scene_dir(str(scenes_dir))
    reports, _, _ = training.evaluate_model(params, pipe_cfg, scenes)
    for i, rep in enumerate(reports):
        doc = json.loads((eval_dir / f"report_default_scene{i:03d}.json").read_text())
        assert doc["map"] == pytest.approx(rep.map)
        if rep.mpjpe_defined:
            assert doc["mpjpe_mm"] == pytest.approx(rep.mpjpe_mm)


def test_eval_on_val_split_reproduces_logged_metrics(tmp_path):
    cfg_doc = tiny_config_doc()
    cfg = write_config(tmp_path, cfg_doc)
    scenes_dir = tmp_path / "scenes"
    run_dir = tmp_path / "run"
    assert run(["generate", "--config", cfg, "--out", str(scenes_dir)]) == 0
    assert run(["train", "--config", cfg, "--out", str(run_dir),
                "--scenes", str(scenes_dir)]) == 0
    params, pipe_cfg, meta = pipeline.load_model(str(run_dir / "model.bin"))
    # the run seed is stored once, as the config's init_seed
    assert pipe_cfg.init_seed == cfg_doc["seed"] and "seed" not in meta
    rows = meta["metrics"]
    scenes = cli.load_scene_dir(str(scenes_dir))
    run_cfg = cli.load_config(cfg)
    _, val_scenes = training.split_scenes(scenes, run_cfg.train.val_fraction)
    _, val_mpjpe, val_ap25 = training.evaluate_model(params, pipe_cfg, val_scenes)
    # identical code path, identical numbers
    assert val_mpjpe == rows[-1]["val_mpjpe_mm"] or (
        np.isnan(val_mpjpe) and np.isnan(rows[-1]["val_mpjpe_mm"]))
    assert val_ap25 == rows[-1]["ap25"]


def test_eval_camera_override_emits_reports_and_sweep(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    scenes_dir = tmp_path / "scenes"
    run_dir = tmp_path / "run"
    eval_dir = tmp_path / "eval"
    assert run(["generate", "--config", cfg, "--out", str(scenes_dir)]) == 0
    assert run(["train", "--config", cfg, "--out", str(run_dir),
                "--scenes", str(scenes_dir)]) == 0
    assert run(["eval", "--model", str(run_dir / "model.bin"),
                "--scenes", str(scenes_dir), "--out", str(eval_dir),
                "--cameras", "3,4"]) == 0
    assert (eval_dir / "report_cam3.csv").exists()
    assert (eval_dir / "report_cam4.csv").exists()
    assert (eval_dir / "sweep.csv").exists()
    assert (eval_dir / "ap_vs_cameras.svg").exists()
    svg = (eval_dir / "ap_vs_cameras.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_ablate_emits_four_rows_deterministically(tmp_path):
    doc = tiny_config_doc()
    doc["train"]["steps"] = 2
    cfg = write_config(tmp_path, doc)
    out1 = tmp_path / "ab1"
    out2 = tmp_path / "ab2"
    assert run(["ablate", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["ablate", "--config", cfg, "--out", str(out2)]) == 0
    table = (out1 / "ablation.csv").read_text().splitlines()
    assert table[0] == "variant,val_mpjpe_mm,ap25,pose_loss,cls_loss"
    assert [line.split(",")[0] for line in table[1:]] == list(pipeline.BLOCK_VARIANTS)
    assert (out1 / "ablation.csv").read_bytes() == (out2 / "ablation.csv").read_bytes()


def test_csv_outputs_keep_their_bytes(tmp_path, monkeypatch):
    """metrics.csv, report_*.csv, sweep.csv and ablation.csv written from
    fixed inputs, byte for byte: a float cell is its repr, so it reads back
    exactly, and the report's mean row averages each column's finite values,
    also over scenes of different actor counts."""
    nan, inf = float("nan"), float("inf")
    training.write_metrics_csv(str(tmp_path / "metrics.csv"), [
        {"epoch": 0, "pose_loss": 0.1 + 0.2, "cls_loss": nan,
         "val_mpjpe_mm": inf, "ap25": 0.0},
        {"epoch": 1, "pose_loss": 12.5, "cls_loss": 0.7,
         "val_mpjpe_mm": 1234.5678, "ap25": 1 / 3}])

    missed = evalsim.EvalReport(
        mpjpe_mm=nan, mpjpe_defined=False, ap={25.0: 0.0, 50.0: 0.0}, map=0.0,
        recall=0.0, pcp_per_actor=[0.0], pcp_avg=0.0, num_predictions=0, num_gt=1)
    found = evalsim.EvalReport(
        mpjpe_mm=123.25, mpjpe_defined=True, ap={25.0: 1 / 3, 50.0: 1.0}, map=2 / 3,
        recall=1.0, pcp_per_actor=[0.7], pcp_avg=0.7, num_predictions=2, num_gt=1)
    # a 1-actor and a 3-actor scene: the header and the mean row have the
    # 3-actor columns, and the 1-actor row leaves the PCP of actors 1 and 2 empty
    trio = evalsim.EvalReport(
        mpjpe_mm=200.5, mpjpe_defined=True, ap={25.0: 0.0, 50.0: 0.5}, map=0.25,
        recall=2 / 3, pcp_per_actor=[0.5, 0.25, 0.0], pcp_avg=0.25, num_predictions=3,
        num_gt=3)
    evaluated = {3: ([missed, found], 123.25, 1 / 6), 5: ([found, found], 123.25, 1 / 3),
                 7: ([found, trio], 161.875, 1 / 6)}
    monkeypatch.setattr(pipeline, "load_model", lambda path: ({}, None, {}))
    monkeypatch.setattr(cli, "load_scenes_for", lambda config, path: [
        SimpleNamespace(config=None, seed=seed) for seed in (0, 1)])
    monkeypatch.setattr(evalsim, "generate_scene",
                        lambda config, seed, num_cameras: num_cameras)
    monkeypatch.setattr(training, "evaluate_model",
                        lambda params, config, scenes: evaluated[scenes[0]])
    assert cli.cmd_eval("model.bin", "scenes", str(tmp_path), cameras=[3, 5, 7]) == 0

    last = {"pss": {"val_mpjpe_mm": 917.5, "ap25": 0.1 + 0.2, "pose_loss": 1e-05,
                    "cls_loss": 0.7},
            "mean": {"val_mpjpe_mm": nan, "ap25": 0.0, "pose_loss": 3985.0,
                     "cls_loss": inf}}
    monkeypatch.setattr(pipeline, "BLOCK_VARIANTS", ("pss", "mean"))
    monkeypatch.setattr(cli, "build_scenes", lambda cfg: [])
    monkeypatch.setattr(training, "train", lambda config, scenes, rng_seed, train_cfg: (
        {}, [last[config.block_variant]]))
    assert cli.cmd_ablate(cli.RunConfig.from_doc(tiny_config_doc()), str(tmp_path)) == 0

    expected = {
        "metrics.csv": "epoch,pose_loss,cls_loss,val_mpjpe_mm,ap25\n"
                       "0,0.30000000000000004,nan,inf,0.0\n"
                       "1,12.5,0.7,1234.5678,0.3333333333333333\n",
        "report_cam3.csv": "scene,mpjpe_mm,recall,map,ap25,ap50,pcp_actor0_pct,pcp_avg_pct\n"
                           "0,nan,0.0,0.0,0.0,0.0,0.0,0.0\n"
                           "1,123.25,1.0,0.6666666666666666,0.3333333333333333,1.0,70.0,70.0\n"
                           "mean,123.25,0.5,0.3333333333333333,0.16666666666666666,0.5,35.0,35.0\n",
        "report_cam7.csv": "scene,mpjpe_mm,recall,map,ap25,ap50,pcp_actor0_pct,pcp_actor1_pct,"
                           "pcp_actor2_pct,pcp_avg_pct\n"
                           "0,123.25,1.0,0.6666666666666666,0.3333333333333333,1.0,70.0,,,70.0\n"
                           "1,200.5,0.6666666666666666,0.25,0.0,0.5,50.0,25.0,0.0,25.0\n"
                           "mean,161.875,0.8333333333333333,0.4583333333333333,"
                           "0.16666666666666666,0.75,60.0,25.0,0.0,47.5\n",
        "sweep.csv": "cameras,mpjpe_mm,ap25,map\n"
                     "3,123.25,0.16666666666666666,0.3333333333333333\n"
                     "5,123.25,0.3333333333333333,0.6666666666666666\n"
                     "7,161.875,0.16666666666666666,0.4583333333333333\n",
        "ablation.csv": "variant,val_mpjpe_mm,ap25,pose_loss,cls_loss\n"
                        "pss,917.5,0.30000000000000004,1e-05,0.7\n"
                        "mean,nan,0.0,3985.0,inf\n",
    }
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode(), name


def test_config_error_exits_2_and_writes_nothing(tmp_path, capsys):
    bad = write_config(tmp_path, {"bogus_key": 1})
    out = tmp_path / "nothing"
    assert run(["generate", "--config", bad, "--out", str(out)]) == 2
    assert not out.exists()
    bad2 = write_config(tmp_path, tiny_config_doc(num_scenes=-1), "bad2.json")
    assert run(["generate", "--config", bad2, "--out", str(out)]) == 2
    assert not out.exists()
    good = write_config(tmp_path, tiny_config_doc(), "good.json")
    bad3 = write_config(tmp_path, tiny_config_doc(train=[1]), "bad3.json")
    # a section that is not an object, a seed that is not an integer, a
    # model with more scales than the scenes' pyramids have levels, and
    # section values of the wrong type: a float or bool for an int field, a
    # tuple of the wrong length
    for argv in (["generate", "--config", good, "--set", "scene=3"],
                 ["generate", "--config", good, "--set", "scene=3", "--seed", "5"],
                 ["generate", "--config", bad3],
                 ["generate", "--config", good, "--set", "seed=abc"],
                 ["generate", "--config", good, "--set", "num_scenes=2.5"],
                 ["train", "--config", good, "--set", "pipeline.num_scales=3"],
                 ["train", "--config", good, "--set", "train.steps=1.5"],
                 ["generate", "--config", good, "--set", "scene.num_cameras=2.5"],
                 ["train", "--config", good, "--set", "pipeline.num_tokens=true"],
                 ["generate", "--config", good, "--set", "pipeline.ground_bounds=[1,2]"],
                 # fields that no longer exist
                 ["generate", "--config", good, "--set", "scene.grid_dtype=foo"],
                 ["generate", "--config", good, "--set", "pipeline.attn_order=scan_first"],
                 ["generate", "--config", good, "--set", "pipeline.scan_grouping=view-major"],
                 ["train", "--config", good, "--set", "train.w_nearest=2"],
                 ["generate", "--config", good, "--set", "scene.rng_seed=3"],
                 # values out of range
                 ["train", "--config", good, "--set", "pipeline.d_state=0"],
                 ["train", "--config", good, "--set", "pipeline.head_hidden=0"],
                 ["train", "--config", good, "--set", "pipeline.ffn_hidden=-5"],
                 ["train", "--config", good, "--set", "pipeline.max_offset_px=-10.0"],
                 ["train", "--config", good, "--set", "pipeline.nms_radius_mm=-1.0"],
                 ["train", "--config", good, "--set", "scene.heatmap_sigma_px=0.0"],
                 ["train", "--config", good, "--set", "train.lambda_cls=-1.0"],
                 # fewer tokens than the scenes have actors
                 ["train", "--config", good, "--set", "scene.num_actors=2",
                  "--set", "pipeline.num_tokens=1"],
                 # nothing to train on
                 ["train", "--config", good, "--set", "num_scenes=0"],
                 ["ablate", "--config", good, "--set", "num_scenes=0"],
                 # pipeline fields the run config derives, even at their derived values
                 ["train", "--config", good, "--set", "pipeline.feature_dim=8"],
                 ["train", "--config", good, "--set", "pipeline.num_joints=6"],
                 ["train", "--config", good, "--set", "pipeline.init_seed=7"]):
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists(), argv
    capsys.readouterr()
    assert run(["train", "--config", good, "--set", "pipeline.init_seed=7",
                "--set", "pipeline.feature_dim=8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: a run config cannot set pipeline.feature_dim (set from "
        "scene.feature_dim), pipeline.init_seed (set from seed)\n")


def test_unknown_section_key_rejected(tmp_path):
    doc = tiny_config_doc()
    doc["scene"]["not_a_field"] = 3
    cfg = write_config(tmp_path, doc)
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 2


def test_set_overrides_apply_and_validate(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    out = tmp_path / "ovr"
    assert run(["generate", "--config", cfg, "--out", str(out),
                "--set", "num_scenes=2"]) == 0
    assert json.loads((out / "scenes_manifest.json").read_text())["scenes"] == [
        {"file": "scene_000.bin"}, {"file": "scene_001.bin"}]
    assert sorted(os.listdir(out)) == ["scene_000.bin", "scene_001.bin",
                                       "scenes_manifest.json"]
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "y"),
                "--set", "scene.bogus=1"]) == 2
    # a float field takes an int, and each scene file's config keeps it as given
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "z"),
                "--set", "train.lambda_cls=1000", "--set", "scene.focal_scale=1"]) == 0
    for i in range(3):
        _, meta = container.load_container(str(tmp_path / "z" / f"scene_{i:03d}.bin"))
        echo = meta["config"]["focal_scale"]
        assert echo == 1 and type(echo) is int


def test_runtime_error_exits_3(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    scenes_dir = tmp_path / "scenes"
    assert run(["generate", "--config", cfg, "--out", str(scenes_dir)]) == 0
    missing = str(tmp_path / "missing_model.bin")
    assert run(["eval", "--model", missing, "--scenes", str(scenes_dir),
                "--out", str(tmp_path / "z")]) == 3
    assert not (tmp_path / "z").exists()


def test_eval_on_scenes_with_fewer_levels_exits_3(tmp_path, capsys):
    doc = tiny_config_doc(num_scenes=1)
    doc["train"]["steps"] = 0
    cfg = write_config(tmp_path, doc)
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
    doc["scene"]["num_scales"] = 1
    one_level = write_config(tmp_path, doc, "one_level.json")
    assert run(["generate", "--config", one_level, "--out", str(tmp_path / "s1")]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", str(tmp_path / "model" / "model.bin"),
                "--scenes", str(tmp_path / "s1"), "--out", str(tmp_path / "ev")]) == 3
    assert "needs 2 pyramid levels of 8 channels, got 1 levels" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def untrained_model(tmp_path):
    """Train zero steps on one scene; returns the model container's path."""
    doc = tiny_config_doc(num_scenes=1)
    doc["train"]["steps"] = 0
    cfg = write_config(tmp_path, doc, "untrained.json")
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "model")]) == 0
    return str(tmp_path / "model" / "model.bin")


@pytest.mark.parametrize("mismatch", ["channels", "joints"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_scene_set_the_model_cannot_read_exits_3_and_writes_nothing(
        tmp_path, capsys, command, mismatch):
    """A scene set with other pyramid channels or another joint count than
    the model's is refused, naming the scene, before --out exists."""
    doc = tiny_config_doc(num_scenes=1)
    doc["train"]["steps"] = 0
    cfg = write_config(tmp_path, doc)
    doc["scene"].update({"channels": {"feature_dim": 10},
                         "joints": {"num_joints": 5}}[mismatch])
    other = write_config(tmp_path, doc, "other.json")
    assert run(["generate", "--config", other, "--out", str(tmp_path / "s")]) == 0
    if command == "train":
        argv = ["train", "--config", cfg, "--scenes", str(tmp_path / "s")]
    else:
        argv = ["eval", "--model", untrained_model(tmp_path),
                "--scenes", str(tmp_path / "s")]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"scene 0 of {tmp_path / 's'}" in err
    assert {"channels": "needs 2 pyramid levels of 8 channels, got 2 levels of 10",
            "joints": "needs 6 joints, got ground truth poses of 5"}[mismatch] in err
    assert not (tmp_path / "out").exists()


def test_train_on_scenes_with_more_actors_than_tokens_exits_3(tmp_path, capsys):
    """A scene set made with more actors than the model has tokens is refused
    for training, naming the scene, before --out exists; eval reads it."""
    doc = tiny_config_doc(num_scenes=1)
    doc["scene"]["num_actors"] = 2
    assert run(["generate", "--config", write_config(tmp_path, doc),
                "--out", str(tmp_path / "s")]) == 0
    doc["scene"]["num_actors"], doc["pipeline"]["num_tokens"] = 1, 1
    cfg = write_config(tmp_path, doc, "one_token.json")
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"scene 0 of {tmp_path / 's'}" in err and "1 tokens cannot host 2 actors" in err
    assert not (tmp_path / "out").exists()
    assert len(cli.load_scenes_for(cli.load_config(cfg).pipeline, str(tmp_path / "s"))) == 1


def test_eval_on_empty_scene_set_exits_3(tmp_path, capsys):
    model = untrained_model(tmp_path)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=0))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "empty")]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "empty"),
                "--out", str(tmp_path / "ev")]) == 3
    err = capsys.readouterr().err
    assert "scenes_manifest.json lists no scenes" in err
    assert not (tmp_path / "ev").exists()


def test_train_inputs_load_before_out_is_created(tmp_path, capsys):
    """An empty scene set and a missing --resume model exit 3 and leave no
    --out directory."""
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=0))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "empty")]) == 0
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--scenes", str(tmp_path / "empty"),
                "--out", str(tmp_path / "run")]) == 3
    assert "scenes_manifest.json lists no scenes" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1), "one.json")
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "again"),
                "--resume", str(tmp_path / "missing_model.bin")]) == 3
    assert "missing_model.bin" in capsys.readouterr().err
    assert not (tmp_path / "again").exists()


def test_eval_on_model_with_removed_config_key_exits_3(tmp_path, capsys):
    model = untrained_model(tmp_path)
    arrays, meta = container.load_container(model)
    meta["config"]["attn_order"] = "attn_first"
    container.save_container(model, arrays, meta)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 3
    err = capsys.readouterr().err
    assert "unknown keys ['attn_order']" in err and "model.bin" in err


@pytest.mark.parametrize("name, shape", [
    ("layer0.ln_g", (1,)), ("layer0.head_b1", (1,)), ("layer0.stray", (3,)),
    ("layer0.head_w2", None), ("layer0.off_b", "nan"),
], ids=["ln_g-misshapen", "head_b1-misshapen", "stray-unexpected", "head_w2-missing",
        "nan-param"])
def test_defective_model_container_exits_3_and_writes_nothing(tmp_path, capsys, name,
                                                              shape):
    """A model container whose parameters are not the ones init_params makes
    for its config (a misshapen, an unexpected or a missing array) or hold a
    non-finite value is refused where it is loaded: eval and train --resume
    exit 3 and create no --out."""
    model = untrained_model(tmp_path)
    arrays, meta = container.load_container(model)
    if shape is None:
        del arrays["param/" + name]
    elif shape == "nan":
        arrays["param/" + name][0] = np.nan
    else:
        arrays["param/" + name] = np.ones(shape)
    container.save_container(model, arrays, meta)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 3
    assert name in capsys.readouterr().err
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "again"),
                "--resume", model]) == 3
    assert name in capsys.readouterr().err
    assert not (tmp_path / "ev").exists() and not (tmp_path / "again").exists()


def resume_after_edit(tmp_path, capsys, change):
    """stderr of train --resume from the untrained model after change(meta)
    rewrote its meta; asserts that the run exited 3, named the model and
    left no --out."""
    model = untrained_model(tmp_path)
    arrays, meta = container.load_container(model)
    change(meta)
    container.save_container(model, arrays, meta)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    capsys.readouterr()
    assert run(["train", "--config", cfg, "--out", str(tmp_path / "again"),
                "--resume", model]) == 3
    assert not (tmp_path / "again").exists()
    err = capsys.readouterr().err
    assert f"{model}: " in err
    return err


@pytest.mark.parametrize("change, message", [
    (lambda meta: meta.update(metrics=5), '"metrics" must be a list, got int'),
    (lambda meta: meta["metrics"].append(3), "expected a JSON object, got int"),
    (lambda meta: meta["metrics"][0].pop("cls_loss"), "missing key 'cls_loss'"),
    (lambda meta: meta["metrics"][0].update(ap25="0.5"),
     "metrics ap25 must be a number, got '0.5'"),
    (lambda meta: meta["metrics"][0].update(pose_loss=True),
     "metrics pose_loss must be a number, got True"),
    (lambda meta: meta["metrics"][0].update(epoch=0.0),
     "metrics epoch must be an int, got 0.0"),
], ids=["not-a-list", "row-not-object", "row-missing-column", "value-string",
        "value-bool", "epoch-float"])
def test_resume_with_malformed_metrics_exits_3_naming_the_model(tmp_path, capsys, change,
                                                                 message):
    """A model whose "metrics" history is not a list of rows of numbers with
    an int epoch is refused by train --resume before --out exists."""
    assert message in resume_after_edit(tmp_path, capsys, change)


def test_model_without_metrics_evaluates_but_does_not_resume(tmp_path, capsys):
    """A model of the older format, with "epochs_done" and no "metrics" in its
    meta, still evaluates; train --resume refuses it, naming the file and
    'metrics'."""
    def older(meta):
        meta["epochs_done"] = len(meta.pop("metrics"))

    assert "missing key 'metrics'" in resume_after_edit(tmp_path, capsys, older)
    model = str(tmp_path / "model" / "model.bin")
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 0


def test_seed_flag_overrides_config_seed(tmp_path):
    cfg = write_config(tmp_path, tiny_config_doc())
    a = tmp_path / "s1"
    b = tmp_path / "s2"
    assert run(["generate", "--config", cfg, "--out", str(a), "--seed", "21"]) == 0
    assert run(["generate", "--config", cfg, "--out", str(b), "--seed", "22"]) == 0
    # scene i of a set is seeded with the run seed + i
    assert [scene.seed for scene in cli.load_scene_dir(str(a))] == [21, 22, 23]
    assert [scene.seed for scene in cli.load_scene_dir(str(b))] == [22, 23, 24]


@pytest.mark.parametrize("option", [["--seed", "3"], ["--set", "scene.focal_scale=0.7"],
                                    ["--workers", "2"]])
def test_eval_rejects_options_it_would_ignore(tmp_path, option):
    """A missing model is a runtime error (exit 3); the option is rejected
    first, with exit 2, before anything is read or written."""
    out = tmp_path / "eval"
    with pytest.raises(SystemExit) as exc:
        run(["eval", "--model", str(tmp_path / "missing_model.bin"),
             "--scenes", str(tmp_path / "scenes"), "--out", str(out)] + option)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("target, cut", [("model", 16), ("scenes", 8), ("model", "header"),
                                         ("scenes", "header")])
def test_eval_on_truncated_container_exits_3_naming_it(tmp_path, capsys, target, cut):
    """A model or a scene file cut short, in its last array or inside its
    header, makes eval exit 3 with the file's name before --out exists."""
    model = untrained_model(tmp_path)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    path = model if target == "model" else str(tmp_path / "s" / "scene_000.bin")
    with open(path, "rb") as fh:
        data = fh.read()
    with open(path, "wb") as fh:
        fh.write(data[:20] if cut == "header" else data[:-cut])
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 3
    err = capsys.readouterr().err
    assert f"{path}: " + ("truncated or corrupt header" if cut == "header"
                          else "array ") in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("name", ["scenes_manifest.json"])
def test_eval_on_truncated_scene_manifest_exits_3_naming_it(tmp_path, capsys, name):
    """A set's manifest that lost its last bytes makes eval exit 3 with the
    file's name before --out exists."""
    model = untrained_model(tmp_path)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    path = tmp_path / "s" / name
    path.write_bytes(path.read_bytes()[:-10])
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 3
    assert f"{path}: not valid JSON" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def eval_after_edit(tmp_path, capsys, name, edit):
    """(path, stderr) of eval on a one-scene set after edit(path) rewrote the
    file `name`, "model.bin" or a file of the set; asserts that eval exited 3
    and left no --out."""
    model = untrained_model(tmp_path)
    cfg = write_config(tmp_path, tiny_config_doc(num_scenes=1))
    assert run(["generate", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    path = model if name == "model.bin" else str(tmp_path / "s" / name)
    edit(path)
    capsys.readouterr()
    assert run(["eval", "--model", model, "--scenes", str(tmp_path / "s"),
                "--out", str(tmp_path / "ev")]) == 3
    assert not (tmp_path / "ev").exists()
    return path, capsys.readouterr().err


def edit_container(change):
    """An edit for eval_after_edit that applies change(arrays, meta) to a container."""
    def edit(path):
        arrays, meta = container.load_container(path)
        change(arrays, meta)
        container.save_container(path, arrays, meta)
    return edit


def drop_manifest_key(key):
    """An edit for eval_after_edit that deletes key from a set's manifest, or
    "file" from its first entry."""
    def edit(path):
        with open(path) as fh:
            doc = json.load(fh)
        del (doc["scenes"][0] if key == "file" else doc)[key]
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return edit


@pytest.mark.parametrize("name, key", [("scene_000.bin", "rig/sizes"),
                                       ("scene_000.bin", "seed"),
                                       ("scenes_manifest.json", "scenes"),
                                       ("scenes_manifest.json", "file"),
                                       ("model.bin", "config")])
def test_eval_on_manifest_missing_a_key_exits_3_naming_it(tmp_path, capsys, name, key):
    """A scene container that lacks an array or a meta key, a set's manifest
    or one of its entries that lacks a key, or a model's meta that lacks one,
    makes eval exit 3 naming the file and the key before --out exists."""
    edit = (drop_manifest_key(key) if name.endswith(".json") else edit_container(
        lambda arrays, meta: (arrays if "/" in key else meta).pop(key)))
    path, err = eval_after_edit(tmp_path, capsys, name, edit)
    assert f"{path}: missing key {key!r}" in err


def set_manifest_value(key, value):
    """An edit for eval_after_edit that sets key of a set's manifest, or "file"
    of its first entry, to value."""
    def edit(path):
        with open(path) as fh:
            doc = json.load(fh)
        (doc["scenes"][0] if key == "file" else doc)[key] = value
        with open(path, "w") as fh:
            json.dump(doc, fh)
    return edit


@pytest.mark.parametrize("key, message", [("scenes", '"scenes" must be a list, got int'),
                                          ("file", '"file" must be a string, got int')],
                         ids=["scenes", "file"])
def test_eval_on_set_manifest_with_wrong_type_exits_3_naming_it(tmp_path, capsys, key,
                                                                 message):
    """A set's manifest whose "scenes" is not a list, or whose entry's "file" is
    not a string, makes eval exit 3 naming the manifest before --out exists."""
    path, err = eval_after_edit(tmp_path, capsys, "scenes_manifest.json",
                                set_manifest_value(key, 5))
    assert f"{path}: {message}" in err

@pytest.mark.parametrize("name, change, message", [
    ("model.bin", lambda arrays, meta: meta.update(config=5),
     "expected a JSON object, got int"),
    ("scene_000.bin", lambda arrays, meta: meta.update(config=5),
     "expected a JSON object, got int"),
    ("scene_000.bin", lambda arrays, meta: arrays["view1/level0"].fill(np.nan),
     "feature grids must be finite"),
    ("scene_000.bin", lambda arrays, meta: arrays.update(gt_poses=arrays["gt_poses"][..., :2]),
     "gt_poses must be (num_actors, num_joints, 3) = (1, 6, 3), got (1, 6, 2)"),
    ("scene_000.bin", lambda arrays, meta: arrays.update(gt_poses=arrays["gt_poses"][0]),
     "gt_poses must be (num_actors, num_joints, 3) = (1, 6, 3), got (6, 3)"),
    ("scene_000.bin", lambda arrays, meta: arrays.update(gt_poses=arrays["gt_poses"][:0]),
     "gt_poses must be (num_actors, num_joints, 3) = (1, 6, 3), got (0, 6, 3)"),
    ("scene_000.bin", lambda arrays, meta: np.put(arrays["gt_poses"], 0, np.nan),
     "gt_poses must be finite"),
    ("scene_000.bin", lambda arrays, meta: np.put(arrays["rig/projections"], 0, np.inf),
     "projections must be finite"),
    ("scene_000.bin", lambda arrays, meta: meta["config"].update(num_cameras=5),
     "config.num_cameras is 5, but the rig has 3 views"),
    ("scene_000.bin", lambda arrays, meta: arrays.update({"rig/sizes": arrays["rig/sizes"] * 2}),
     "rig/sizes must be the config's image size (64, 48) in every view, "
     "got [[128, 96], [128, 96], [128, 96]]"),
    ("scene_000.bin",
     lambda arrays, meta: arrays.update({"view1/level1": arrays["view1/level1"][:-1]}),
     "view1/level1 is (23, 32) (H, W), not the (24, 32) that image size (64, 48) gives level 1"),
], ids=["model-config", "scene-config", "nan-grid", "poses-xy", "poses-unstacked",
        "poses-no-actor", "nan-poses", "inf-projection", "camera-count", "image-size",
        "grid-size"])
def test_eval_on_container_with_invalid_content_exits_3_naming_it(tmp_path, capsys, name,
                                                                 change, message):
    """A model or scene container whose config is not an object, or a scene
    container whose grids, poses, projections, camera count or image size fail their
    checks, makes eval exit 3 naming the file and the fault before --out exists."""
    path, err = eval_after_edit(tmp_path, capsys, name, edit_container(change))
    assert f"{path}: {message}" in err
