import json
import os
import shutil

import numpy as np
import pytest

from epigraph.cli import load_manifest, main


def run(args):
    return main(args)


def base_args(root, extra=()):
    return ["--set", f"run.out_root={root}",
            "--set", "dataset.n_frames=12",
            "--set", "dataset.n_points=30",
            "--set", "model.hidden=16",
            "--set", "train.epochs=2",
            *extra]


def dir_snapshot(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestGenerate:
    def test_pair_counts_per_spacing(self, tmp_path):
        rc = run(["generate"] + base_args(tmp_path,
                 ["--set", "dataset.spacings=0.1,0.5"]))
        assert rc == 0
        _, corrs1, info1 = load_manifest(tmp_path / "dataset" / "manifest_s0p1.txt")
        _, corrs5, info5 = load_manifest(tmp_path / "dataset" / "manifest_s0p5.txt")
        assert len(corrs1) == 12 - 1 and info1["step"] == 1
        assert len(corrs5) == 12 - 5 and info5["step"] == 5

    def test_byte_identical_regeneration(self, tmp_path):
        run(["generate"] + base_args(tmp_path / "a"))
        run(["generate"] + base_args(tmp_path / "b"))
        snap_a = dir_snapshot(tmp_path / "a")
        snap_b = dir_snapshot(tmp_path / "b")
        assert snap_a.keys() == snap_b.keys()
        for k in snap_a:
            assert snap_a[k] == snap_b[k], k

    def test_empty_sampling_surfaces_as_config_error(self, tmp_path, capsys):
        rc = run(["generate"] + base_args(tmp_path,
                 ["--set", "dataset.spacings=2.0", "--set", "dataset.n_frames=15"]))
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("sequence", ["a b", ""])
    def test_unreadable_sequence_name_exits_two(self, tmp_path, capsys, sequence):
        # the manifest splits its records on whitespace, so train could not read it
        rc = run(["generate"] + base_args(tmp_path, ["--set", f"dataset.sequence={sequence}"]))
        assert rc == 2
        assert "dataset.sequence" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "dataset")

    def test_gt_relative_round_trips_through_files(self, tmp_path):
        run(["generate"] + base_args(tmp_path))
        _, corrs, _ = load_manifest(tmp_path / "dataset" / "manifest_s0p1.txt")
        for corr in corrs:
            assert corr.gt_relative is not None
            assert np.abs(corr.gt_relative.t[2] - 0.1) < 1e-12  # forward motion


@pytest.fixture(scope="module")
def trained_root(tmp_path_factory):
    """generate -> train once; several commands below reuse the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    assert run(["generate"] + base_args(root)) == 0
    manifest = os.path.join(root, "dataset", "manifest_s0p1.txt")
    assert run(["train"] + base_args(root,
               ["--set", "dataset.kind=files",
                "--set", f"dataset.manifest={manifest}"])) == 0
    return root


def test_unrunnable_setting_exits_two(tmp_path, capsys):
    assert run(["train"] + base_args(tmp_path, ["--set", "graph.k=0"])) == 2
    assert "graph.k" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "checkpoint.txt")


@pytest.mark.parametrize("source", ["set", "config"])
def test_retired_lambda_svd_setting_exits_two(tmp_path, capsys, source):
    ini = tmp_path / "exp.ini"
    ini.write_text("[loss]\nlambda_svd = 1\n")
    extra = (["--set", "loss.lambda_svd=1"] if source == "set"
             else ["--config", str(ini)])
    assert run(["train"] + base_args(tmp_path, extra)) == 2
    assert "lambda_svd" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["set", "config"])
@pytest.mark.parametrize("key,value", [("layers", "gcn:6:32,gcn:32:32"), ("pooling", "sum")])
def test_retired_model_setting_exits_two(tmp_path, capsys, source, key, value):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[model]\n{key} = {value}\n")
    extra = (["--set", f"model.{key}={value}"] if source == "set"
             else ["--config", str(ini)])
    assert run(["train"] + base_args(tmp_path, extra)) == 2
    err = capsys.readouterr().err
    assert "unknown" in err and f"model.{key}" in err
    assert not os.path.exists(tmp_path / "checkpoint.txt")


class TestTrain:
    def test_checkpoint_and_report_written(self, trained_root):
        assert os.path.exists(os.path.join(trained_root, "checkpoint.txt"))
        text = open(os.path.join(trained_root, "train_report.txt")).read()
        assert text.startswith("# epigraph-train-report v1")

    def test_missing_dataset_path(self, tmp_path, capsys):
        rc = run(["train"] + base_args(tmp_path,
                 ["--set", "dataset.kind=files",
                  "--set", "dataset.manifest=/missing/manifest.txt"]))
        assert rc == 2
        assert "manifest" in capsys.readouterr().err


class TestEval:
    def test_eightpoint_baseline_tight_on_noiseless(self, trained_root, capsys):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        rc = run(["eval"] + base_args(trained_root,
                 ["--set", "dataset.kind=files",
                  "--set", f"dataset.manifest={manifest}",
                  "--set", "eval.baseline=eightpoint"]))
        assert rc == 0
        out_dir = os.path.join(trained_root, "out")
        summary = json.load(open(os.path.join(out_dir, "eightpoint_summary.json")))
        assert summary["dre_deg_mean"] < 1e-4
        assert summary["dte_deg_mean"] < 1e-4
        for name in ("model_pairs.csv", "model_frames.csv", "model_summary.json",
                     "model_traj.txt", "gt_traj.txt", "eightpoint_traj.txt"):
            assert os.path.exists(os.path.join(out_dir, name))

    def test_eval_deterministic(self, trained_root):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        args = lambda sub: base_args(trained_root, [
            "--set", "dataset.kind=files",
            "--set", f"dataset.manifest={manifest}",
            "--set", f"eval.out_dir={sub}"])
        assert run(["eval"] + args("out_a")) == 0
        assert run(["eval"] + args("out_b")) == 0
        a = dir_snapshot(os.path.join(trained_root, "out_a"))
        b = dir_snapshot(os.path.join(trained_root, "out_b"))
        assert a.keys() == b.keys()
        for k in a:
            assert a[k] == b[k], k

    def test_failing_baseline_pair_is_skipped_in_its_report_only(
            self, trained_root, capsys, monkeypatch):
        from epigraph import epipolar, train as train_mod
        from epigraph.errors import AmbiguousCheiralityError, EmptyGraphError

        real = epipolar.recover_pose
        calls = []

        def flaky(pairs):
            calls.append(1)
            if len(calls) == 2:
                raise AmbiguousCheiralityError("tie in test", [])
            return real(pairs)

        real_build = train_mod.build_graph

        def unbuildable(corr, **kwargs):
            if corr.pair_label() == "seq:3:4":
                raise EmptyGraphError("no graph in test")
            return real_build(corr, **kwargs)

        monkeypatch.setattr(epipolar, "recover_pose", flaky)
        monkeypatch.setattr(train_mod, "build_graph", unbuildable)
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        rc = run(["eval"] + base_args(trained_root,
                 ["--set", "dataset.kind=files",
                  "--set", f"dataset.manifest={manifest}",
                  "--set", "eval.baseline=eightpoint",
                  "--set", "eval.out_dir=out_flaky"]))
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped 1 unbuildable pairs: seq:3:4 (EmptyGraphError)" in out
        assert "eight-point baseline failed on 1 pairs: seq:1:2 (AmbiguousCheiralityError)" in out
        out_dir = os.path.join(trained_root, "out_flaky")
        model = json.load(open(os.path.join(out_dir, "model_summary.json")))
        base = json.load(open(os.path.join(out_dir, "eightpoint_summary.json")))
        assert model["n_pairs"] == 11 - 1
        assert base["n_pairs"] == model["n_pairs"] - 1
        rows = open(os.path.join(out_dir, "eightpoint_pairs.csv")).read()
        assert "seq:1:2" not in rows and "seq:0:1" in rows
        assert "seq:3:4" not in rows
        assert "seq:3:4" not in open(os.path.join(out_dir, "model_pairs.csv")).read()

    def test_intrinsics_mismatch_rejected(self, trained_root, capsys):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        rc = run(["eval"] + base_args(trained_root,
                 ["--set", "dataset.kind=files",
                  "--set", f"dataset.manifest={manifest}",
                  "--set", "dataset.check_intrinsics=true",
                  "--set", "dataset.fx=999.0"]))
        assert rc == 2
        assert "intrinsics" in capsys.readouterr().err


class TestExportEmbeddings:
    def test_layer_zero_rows_are_node_features(self, trained_root):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        out_csv = os.path.join(trained_root, "emb0.csv")
        rc = run(["export-embeddings"] + base_args(trained_root,
                 ["--set", "dataset.kind=files",
                  "--set", f"dataset.manifest={manifest}",
                  "--layer", "0", "--out", out_csv]))
        assert rc == 0
        lines = open(out_csv).read().splitlines()
        assert lines[0] == "pair_id,node,e0,e1,e2,e3,e4,e5"

        from epigraph.graph import build_graph
        from epigraph.train import graph_params_from_meta
        from epigraph import nn
        _, _, meta = nn.load_checkpoint(os.path.join(trained_root, "checkpoint.txt"))
        gp = graph_params_from_meta(meta)
        _, corrs, _ = load_manifest(manifest)
        first = build_graph(corrs[0], params=gp)
        expected_rows = sum(build_graph(c, params=gp).n_nodes + 1 for c in corrs)
        assert len(lines) - 1 == expected_rows

        # first pair's node rows equal its graph features; pooled row is the mean
        n0 = first.n_nodes
        feats = np.array([[float(v) for v in ln.split(",")[2:]]
                          for ln in lines[1:1 + n0]])
        assert np.array_equal(feats, first.node_features)
        pooled = np.array([float(v) for v in lines[1 + n0].split(",")[2:]])
        assert lines[1 + n0].split(",")[1] == "-1"
        assert np.allclose(pooled, first.node_features.mean(axis=0))

    def test_layer_out_of_range(self, trained_root, capsys):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        rc = run(["export-embeddings"] + base_args(trained_root,
                 ["--set", "dataset.kind=files",
                  "--set", f"dataset.manifest={manifest}",
                  "--layer", "7"]))
        assert rc == 2


class TestCheckpointMeta:
    """A checkpoint whose graph or loss-weight meta is missing or malformed
    ends in SchemaVersionError, exit 3, for every command that reads it."""

    def rewrite(self, trained_root, tmp_path, keep_line):
        lines = open(os.path.join(trained_root, "checkpoint.txt")).read().splitlines()
        path = tmp_path / "bad.ckpt"
        path.write_text("\n".join(keep_line(ln) for ln in lines if keep_line(ln)) + "\n")
        return str(path)

    def run_with(self, command, trained_root, ckpt, tmp_path):
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        extra = {"eval": ["--set", "eval.out_dir=out_bad_meta"],
                 "export-embeddings": ["--out", str(tmp_path / "emb.csv")]}[command]
        return run([command] + base_args(trained_root,
                   ["--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}",
                    "--checkpoint", ckpt, *extra]))

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_stripped_graph_meta(self, trained_root, tmp_path, capsys, command):
        ckpt = self.rewrite(trained_root, tmp_path,
                            lambda ln: None if ln.startswith("meta graph.") else ln)
        assert self.run_with(command, trained_root, ckpt, tmp_path) == 3
        assert "graph.k" in capsys.readouterr().err

    def set_graph_meta(self, trained_root, tmp_path, values):
        """A copy of the checkpoint whose ``meta graph.<field>`` lines hold
        ``values``; each replaces the field's line, or is added where the
        checkpoint has none, as for the retired fields."""
        def edit(ln):
            if any(ln.startswith(f"meta graph.{field} ") for field in values):
                return None
            if ln.startswith("meta normalized_e "):
                return "\n".join([ln] + [f"meta graph.{f} {v}" for f, v in values.items()])
            return ln
        return self.rewrite(trained_root, tmp_path, edit)

    # a retired field (symmetrize, knn_source) holding anything but its fixed
    # value marks a checkpoint trained on graphs that are no longer built
    @pytest.mark.parametrize("field,value", [
        ("k", "0"), ("tau", "0"), ("knn_source", "3"), ("e0_m", "4"),
        ("e0_iters", "-1"), ("radius", "0"), ("variant", "fuzzy"),
        ("knn_source", "2"), ("symmetrize", "0")])
    def test_unrunnable_graph_meta(self, trained_root, tmp_path, capsys, field, value):
        ckpt = self.set_graph_meta(trained_root, tmp_path, {field: value})
        assert f"meta graph.{field} {value}\n" in open(ckpt).read()
        assert self.run_with("eval", trained_root, ckpt, tmp_path) == 3
        assert f"graph.{field}" in capsys.readouterr().err

    def test_retired_graph_meta_at_its_fixed_value_is_accepted(self, trained_root,
                                                               tmp_path):
        """Checkpoints written while symmetrize, knn_source, full_denominator
        and e0_seed were settings carry their meta lines; at the values every
        run used, they evaluate exactly like a fresh checkpoint."""
        ckpt = self.set_graph_meta(trained_root, tmp_path, {
            "symmetrize": "1", "knn_source": "1", "full_denominator": "0", "e0_seed": "0"})
        assert "meta graph.full_denominator 0\n" in open(ckpt).read()
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        outputs = []
        for name, path in (("fresh", os.path.join(trained_root, "checkpoint.txt")),
                           ("old_meta", ckpt)):
            out_dir = f"out_graph_meta_{name}"
            assert run(["eval"] + base_args(trained_root, [
                "--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}",
                "--set", "eval.baseline=eightpoint", "--set", f"eval.out_dir={out_dir}",
                "--checkpoint", path])) == 0
            outputs.append(dir_snapshot(os.path.join(trained_root, out_dir)))
        assert outputs[0] and outputs[0] == outputs[1]

    def test_non_finite_loss_weight(self, trained_root, tmp_path, capsys):
        ckpt = self.rewrite(trained_root, tmp_path,
                            lambda ln: "meta lambda_pose nan"
                            if ln.startswith("meta lambda_pose ") else ln)
        assert self.run_with("eval", trained_root, ckpt, tmp_path) == 3
        assert "lambda_pose" in capsys.readouterr().err

    def test_pre_change_lambda_svd_meta_is_ignored(self, trained_root, tmp_path):
        """Checkpoints written while the spectral term existed carry a
        ``meta lambda_svd`` line; it never had an effect and is skipped."""
        ckpt = self.rewrite(trained_root, tmp_path,
                            lambda ln: ln + "\nmeta lambda_svd 1.0"
                            if ln.startswith("meta lambda_frob ") else ln)
        assert "meta lambda_svd 1.0" in open(ckpt).read()
        manifest = os.path.join(trained_root, "dataset", "manifest_s0p1.txt")
        outputs = []
        for name, path in (("fresh", os.path.join(trained_root, "checkpoint.txt")),
                           ("old_meta", ckpt)):
            out_dir = f"out_svd_meta_{name}"
            assert run(["eval"] + base_args(trained_root, [
                "--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}",
                "--set", "eval.baseline=eightpoint", "--set", f"eval.out_dir={out_dir}",
                "--checkpoint", path])) == 0
            outputs.append(dir_snapshot(os.path.join(trained_root, out_dir)))
        assert outputs[0] and outputs[0] == outputs[1]

    # the first value of head_q.b's tensor, m and v lines
    @pytest.mark.parametrize("offset,value", [(1, "nan"), (2, "inf"), (3, "-inf")])
    def test_non_finite_tensor_value(self, trained_root, tmp_path, capsys, offset, value):
        lines = open(os.path.join(trained_root, "checkpoint.txt")).read().splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("tensor head_q.b ")) + offset
        lines[at] = " ".join([value] + lines[at].split()[1:])
        ckpt = tmp_path / "bad.ckpt"
        ckpt.write_text("\n".join(lines) + "\n")
        assert self.run_with("eval", trained_root, str(ckpt), tmp_path) == 3
        err = capsys.readouterr().err
        assert f"line {at + 1}: non-finite value for tensor head_q.b" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "export-embeddings"])
    def test_non_numeric_k(self, trained_root, tmp_path, capsys, command):
        ckpt = self.rewrite(trained_root, tmp_path,
                            lambda ln: "meta graph.k six" if ln.startswith("meta graph.k ")
                            else ln)
        assert self.run_with(command, trained_root, ckpt, tmp_path) == 3
        assert "six" in capsys.readouterr().err


# (file, first line starting with this prefix, its replacement)
MALFORMED = {
    "step": ("checkpoint.txt", "step ", "step one"),
    "tensor_ndim": ("checkpoint.txt", "tensor ", "tensor L0.W two"),
    "preset": ("checkpoint.txt", "config preset ", "config preset warp"),
    "fps_value": ("dataset/manifest_s0p1.txt", "fps ", "fps ten"),
    "fps_bare": ("dataset/manifest_s0p1.txt", "fps ", "fps"),
    "pair_id": ("dataset/pairs_s0p1/pair_00000_00001.txt", "# pair_id ",
                "# pair_id seq zero 1"),
    "gt_relative": ("dataset/pairs_s0p1/pair_00000_00001.txt", "# gt_relative ",
                    "# gt_relative 1 0 0 zero 0.1 0 0"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_is_format_error_with_its_line(trained_root, tmp_path, capsys,
                                                      case):
    """A bad value in a checkpoint, manifest or correspondence file exits 3
    with the offending line number, never a raw traceback."""
    rel, prefix, replacement = MALFORMED[case]
    shutil.copytree(os.path.join(trained_root, "dataset"), tmp_path / "dataset")
    shutil.copy(os.path.join(trained_root, "checkpoint.txt"), tmp_path)
    lines = (tmp_path / rel).read_text().splitlines()
    ln = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[ln] = replacement
    (tmp_path / rel).write_text("\n".join(lines) + "\n")
    manifest = str(tmp_path / "dataset" / "manifest_s0p1.txt")
    rc = run(["eval"] + base_args(tmp_path, [
        "--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}",
        "--checkpoint", str(tmp_path / "checkpoint.txt")]))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"line {ln + 1}:" in err


# (file, first line starting with this prefix, index of the field to replace)
NON_FINITE_FIELDS = {
    "pixel": ("dataset/pairs_s0p1/pair_00003_00004.txt", "", 0),
    "header_cx": ("dataset/pairs_s0p1/pair_00003_00004.txt", "# epigraph-corr ", 7),
    "gt_relative": ("dataset/pairs_s0p1/pair_00003_00004.txt", "# gt_relative ", 6),
    "trajectory": ("dataset/trajectory.txt", "", 3),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(NON_FINITE_FIELDS))
def test_non_finite_number_in_dataset_file_exits_three(trained_root, tmp_path, capsys,
                                                      case, value):
    """NaN compares False, so range checks alone let it through; every
    number a dataset file holds must be finite."""
    rel, prefix, field = NON_FINITE_FIELDS[case]
    shutil.copytree(os.path.join(trained_root, "dataset"), tmp_path / "dataset")
    lines = (tmp_path / rel).read_text().splitlines()
    ln = next(i for i, line in enumerate(lines)
              if line.startswith(prefix) and (prefix or not line.startswith("#")))
    parts = lines[ln].split()
    parts[field] = value
    lines[ln] = " ".join(parts)
    (tmp_path / rel).write_text("\n".join(lines) + "\n")
    manifest = str(tmp_path / "dataset" / "manifest_s0p1.txt")
    rc = run(["train"] + base_args(tmp_path, [
        "--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}"]))
    err = capsys.readouterr().err
    assert rc == 3, err
    assert f"line {ln + 1}: non-finite value '{value}'" in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "checkpoint.txt")


class TestGradcheckCommand:
    def test_single_preset_ok(self, capsys):
        assert run(["gradcheck", "--presets", "GIN_SumPool"]) == 0
        out = capsys.readouterr().out
        assert "GIN_SumPool" in out and "FAIL" not in out

    def test_kinks_at_seed_5_take_one_sided_differences(self, capsys):
        # two GIN_SumPool probes at seed 5 cross a ReLU kink on one side
        assert run(["gradcheck", "--presets", "GIN_SumPool", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "GIN_SumPool  kinked probes: 2 one-sided, 0 on both sides\n" in out

    def test_corruption_exits_one(self, capsys):
        assert run(["gradcheck", "--presets", "GIN_SumPool",
                    "--corrupt", "mlp1.b"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_empty_presets_exit_zero(self, capsys):
        assert run(["gradcheck", "--presets", ""]) == 0
        assert "empty report" in capsys.readouterr().out


class TestBenchKnn:
    def test_variant_table(self, tmp_path):
        rc = run(["bench-knn"] + base_args(tmp_path, ["--epochs", "2"]))
        assert rc == 0
        lines = open(tmp_path / "knn_bench.csv").read().splitlines()
        assert lines[0].startswith("variant,ate_m,ape_mean_m")
        variants = [ln.split(",")[0] for ln in lines[1:]]
        assert variants == ["hard", "soft", "radius", "mutual"]
        # soft weights recorded in (0, 1]
        soft = lines[2].split(",")
        wmin, wmax = float(soft[-2]), float(soft[-1])
        assert 0.0 < wmin <= wmax <= 1.0

    def test_each_graph_built_once_per_variant(self, tmp_path, monkeypatch):
        # stats, training and evaluation share one build per pair and variant
        from epigraph import train as train_mod

        calls = []
        real = train_mod.build_graph

        def counted(corr, **kwargs):
            calls.append(kwargs["params"].variant)
            return real(corr, **kwargs)

        monkeypatch.setattr(train_mod, "build_graph", counted)
        assert run(["bench-knn"] + base_args(tmp_path, ["--epochs", "1"])) == 0
        pairs = 12 - 1
        assert calls == [v for v in ("hard", "soft", "radius", "mutual")
                         for _ in range(pairs)]

    def test_stops_at_a_pair_that_fails(self, tmp_path, capsys):
        assert run(["generate"] + base_args(tmp_path)) == 0
        path = tmp_path / "dataset" / "pairs_s0p1" / "pair_00004_00005.txt"
        lines = path.read_text().splitlines()
        matches = [ln for ln in lines[1:] if not ln.startswith("#")]
        trailers = [ln for ln in lines[1:] if ln.startswith("#")]
        path.write_text("\n".join([lines[0], *matches[:7], *trailers]) + "\n")
        manifest = str(tmp_path / "dataset" / "manifest_s0p1.txt")
        rc = run(["bench-knn"] + base_args(tmp_path, [
            "--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}",
            "--epochs", "1"]))
        assert rc == 2
        assert "error: need >= 8 correspondences, got 7" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "knn_bench.csv")

    @pytest.mark.parametrize("epochs", [-1, 0])
    def test_epochs_is_checked_like_train_epochs(self, tmp_path, capsys, epochs):
        rc = run(["bench-knn"] + base_args(tmp_path, ["--epochs", str(epochs)]))
        assert rc == 2
        assert (f"error: train.epochs must be >= 1, got {epochs}"
                in capsys.readouterr().err)
        assert os.listdir(tmp_path) == []

    def test_epochs_overrides_the_config(self, tmp_path, monkeypatch):
        from epigraph import train as train_mod

        seen = []
        real = train_mod.train

        def recorded(cfg, *args, **kwargs):
            seen.append((cfg.graph.variant, cfg.train.epochs))
            return real(cfg, *args, **kwargs)

        monkeypatch.setattr(train_mod, "train", recorded)
        assert run(["bench-knn"] + base_args(tmp_path, ["--set", "train.epochs=7",
                                                        "--epochs", "2"])) == 0
        assert seen == [(v, 2) for v in ("hard", "soft", "radius", "mutual")]


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_io_error_exits_three(tmp_path, capsys):
    rc = run(["eval"] + base_args(tmp_path,
             ["--checkpoint", str(tmp_path / "missing.ckpt")]))
    assert rc == 3
    bad = tmp_path / "garbled.ckpt"
    bad.write_text("# epigraph-ckpt v99\n")
    rc = run(["eval"] + base_args(tmp_path, ["--checkpoint", str(bad)]))
    assert rc == 3


def test_env_var_overrides_out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("EPIGRAPH_OUT_ROOT", str(tmp_path / "env_root"))
    rc = run(["generate", "--set", "dataset.n_frames=5",
              "--set", "dataset.n_points=30",
              "--set", "run.out_root=/should/not/be/used"])
    assert rc == 0
    assert os.path.exists(tmp_path / "env_root" / "dataset" / "trajectory.txt")
