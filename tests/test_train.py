import dataclasses

import numpy as np
import pytest

from epigraph import nn
from epigraph import train as train_mod
from epigraph.config import ExperimentConfig, ModelSection, TrainSection
from epigraph.errors import (
    InsufficientCorrespondencesError,
    SchemaVersionError,
    ValidationError,
)
from epigraph.geom import Pose, quat_from_axis_angle
from epigraph.graph import GraphParams
from epigraph.losses import LossWeights
from epigraph.synth import CorrespondenceSet, generate_scene
from epigraph.train import (
    EpochStats,
    GraphCache,
    graph_params_from_meta,
    load_model,
    predict,
    split_dataset,
    train,
    weights_from_meta,
    _mean_breakdown,
    write_report,
)


def small_pose(seed=0, rot_deg=6.0):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=3)
    t = 0.8 * t / np.linalg.norm(t)
    if t[2] < 0:
        t = -t
    return Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(rot_deg)), t)


def tiny_dataset(n_pairs=6, n_points=40, seed=100):
    return [generate_scene(seed + i, n_points, (3, 10), small_pose(seed + i))
            for i in range(n_pairs)]


def tiny_config(epochs=3, seed=0, graph=GraphParams(), loss=LossWeights(), **train_kw):
    return ExperimentConfig(seed=seed, graph=graph, loss=loss,
                            model=ModelSection("GIN_SumPool", hidden=16),
                            train=TrainSection(epochs=epochs, **train_kw))


class TestSplit:
    def test_sizes(self):
        train_set, val_set = split_dataset(list(range(10)), 0.8, 0)
        assert (len(train_set), len(val_set)) == (8, 2)

    def test_same_seed_same_split(self):
        a = split_dataset(list(range(20)), 0.8, 5)
        b = split_dataset(list(range(20)), 0.8, 5)
        assert a == b

    def test_disjoint_exhaustive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 50))
            frac = float(rng.uniform(0.1, 0.9))
            tr, va = split_dataset(list(range(n)), frac, int(rng.integers(0, 99)))
            assert set(tr) | set(va) == set(range(n))
            assert set(tr) & set(va) == set()
            assert len(tr) >= 1 and len(va) >= 1

    def test_too_small(self):
        with pytest.raises(ValidationError):
            split_dataset([1], 0.8, 0)


class TestTrainLoop:
    def test_zero_lr_leaves_params_unchanged(self, tmp_path):
        data = tiny_dataset()
        cfg = tiny_config(epochs=2)
        # a config refuses lr=0; set it past that check to test the loop itself
        object.__setattr__(cfg.train, "lr", 0.0)
        ckpt = tmp_path / "ckpt.txt"
        train(cfg, data, ckpt, final_checkpoint_path=tmp_path / "final.txt")
        params, model_cfg, _ = nn.load_checkpoint(tmp_path / "final.txt")
        init = nn.init_params(model_cfg, np.random.default_rng(
            np.random.SeedSequence([0, __import__("zlib").crc32(b"init")])))
        for k in init.tensors:
            assert np.array_equal(params.tensors[k], init.tensors[k])

    def test_bit_identical_reports_same_seed(self, tmp_path):
        data = tiny_dataset()
        r1 = train(tiny_config(seed=3), data, tmp_path / "a.txt")
        r2 = train(tiny_config(seed=3), data, tmp_path / "b.txt")
        assert len(r1.epochs) == len(r2.epochs)
        for s1, s2 in zip(r1.epochs, r2.epochs):
            assert dataclasses.astuple(s1.train_mean) == dataclasses.astuple(s2.train_mean)
            assert dataclasses.astuple(s1.val_mean) == dataclasses.astuple(s2.val_mean)
        assert r1.best_epoch == r2.best_epoch
        assert r1.best_val_total == r2.best_val_total
        assert open(tmp_path / "a.txt").read() == open(tmp_path / "b.txt").read()

    def test_checkpoint_tracks_running_min(self, tmp_path):
        data = tiny_dataset(8)
        report = train(tiny_config(epochs=5, seed=1), data, tmp_path / "c.txt")
        vals = [s.val_mean.total for s in report.epochs]
        assert report.best_val_total == min(vals)
        assert report.best_epoch == int(np.argmin(vals)) + 1
        _, _, meta = nn.load_checkpoint(tmp_path / "c.txt")
        assert float(meta["val_total"]) == min(vals)
        assert int(meta["epoch"]) == report.best_epoch

    def test_one_checkpoint_write_per_run(self, tmp_path, monkeypatch):
        calls = []
        save = nn.save_checkpoint
        monkeypatch.setattr(nn, "save_checkpoint",
                            lambda path, *a: calls.append(path) or save(path, *a))
        data = tiny_dataset(8)
        train(tiny_config(epochs=4, seed=1), data, tmp_path / "c.txt")
        assert calls == [tmp_path / "c.txt"]
        calls.clear()
        train(tiny_config(epochs=4, seed=1), data, tmp_path / "c.txt",
              final_checkpoint_path=tmp_path / "final.txt")
        assert calls == [tmp_path / "c.txt", tmp_path / "final.txt"]

    def test_error_in_later_epoch_keeps_best_earlier_checkpoint(self, tmp_path,
                                                               monkeypatch):
        data = tiny_dataset(8)
        cfg = tiny_config(epochs=5, seed=1)
        # per-epoch reference: the best of epochs 1..3, written from the live
        # parameters at the end of a run that stops at that epoch
        best = train(tiny_config(epochs=3, seed=1), data, tmp_path / "a.txt").best_epoch
        train(tiny_config(epochs=best, seed=1), data, tmp_path / "b.txt",
              final_checkpoint_path=tmp_path / "ref.txt")
        steps = []
        adam_step = nn.adam_step

        def failing_step(params, grads, **kw):
            steps.append(1)
            if len(steps) == 3 * 2 + 2:  # 2 steps per epoch: epoch 4's second
                raise RuntimeError("injected")
            adam_step(params, grads, **kw)

        monkeypatch.setattr(nn, "adam_step", failing_step)
        with pytest.raises(RuntimeError, match="injected"):
            train(cfg, data, tmp_path / "crash.txt")
        assert (tmp_path / "crash.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()

    def test_skip_accounting(self, tmp_path):
        data = tiny_dataset(6)
        # a pair with 7 correspondences cannot seed E0 and must be skipped
        broken = generate_scene(999, 7, (3, 10), small_pose(999))
        data = data + [broken]
        report = train(tiny_config(epochs=2, seed=2), data, tmp_path / "d.txt")
        train_n, val_n = 6, 1  # split of 7 at 0.8
        for s in report.epochs:
            assert s.processed + s.skipped == train_n
            assert s.val_processed + s.val_skipped == val_n

    def test_loss_decreases_on_overfit_sample(self, tmp_path):
        data = tiny_dataset(6, seed=300)
        report = train(tiny_config(epochs=40, seed=4, lr=1e-3), data,
                       tmp_path / "e.txt")
        first = report.epochs[0].train_mean.total
        last = report.epochs[-1].train_mean.total
        assert last < first

    def test_missing_gt_rejected(self, tmp_path):
        corr = generate_scene(1, 20, (3, 10), small_pose(1))
        bare = CorrespondenceSet(corr.p1, corr.p2, corr.confidence,
                                 corr.intrinsics, corr.width, corr.height,
                                 gt_relative=None)
        with pytest.raises(ValidationError):
            train(tiny_config(), [bare, bare], tmp_path / "f.txt")

    def test_colliding_pair_ids_get_distinct_graphs(self, tmp_path):
        # scenes built without explicit pair ids share the default one; the
        # build cache must still keep their graphs apart
        data = tiny_dataset(4, seed=42)
        assert len({c.pair_id for c in data}) == 1
        train(tiny_config(epochs=1, seed=0), data, tmp_path / "c.txt")
        res = predict(load_model(tmp_path / "c.txt"), data)
        qs = {tuple(out.q) for out in res}
        assert len(qs) == len(data)


class TestGraphCache:
    def test_same_set_and_params_give_the_same_tensors(self, monkeypatch):
        calls = []
        real = train_mod.build_graph
        monkeypatch.setattr(train_mod, "build_graph",
                            lambda corr, **kw: calls.append(corr) or real(corr, **kw))
        corr = tiny_dataset(1)[0]
        cache = GraphCache()
        first = cache.get(corr, GraphParams())
        assert cache.get(corr, GraphParams()) is first
        assert cache.get(corr, GraphParams(k=4)) is not first
        assert calls == [corr, corr]

    def test_failed_pair_raises_its_error_again(self):
        bad = generate_scene(1, 7, (3, 10), small_pose(1))  # too few matches for E0
        cache = GraphCache()
        with pytest.raises(InsufficientCorrespondencesError) as first:
            cache.get(bad, GraphParams())
        with pytest.raises(InsufficientCorrespondencesError) as again:
            cache.get(bad, GraphParams())
        assert again.value is first.value

    def test_two_caches_share_nothing(self):
        corr = tiny_dataset(1)[0]
        a, b = GraphCache(), GraphCache()
        ga = a.get(corr, GraphParams())
        assert b.store == {}
        assert b.get(corr, GraphParams()) is not ga
        assert list(a.store) == list(b.store) == [(corr, GraphParams())]


class TestEvaluate:
    def test_idempotent(self, tmp_path):
        data = tiny_dataset(6, seed=500)
        train(tiny_config(seed=6), data, tmp_path / "h.txt")
        r1 = predict(load_model(tmp_path / "h.txt"), data)
        r2 = predict(load_model(tmp_path / "h.txt"), data)
        assert len(r1) == len(r2) == len(data)
        for o1, o2 in zip(r1, r2):
            assert np.array_equal(o1.q, o2.q) and np.array_equal(o1.t_dir, o2.t_dir)
            assert o1.t_raw == o2.t_raw

    def test_empty_dataset_empty_result(self, tmp_path):
        data = tiny_dataset(6, seed=600)
        train(tiny_config(seed=7), data, tmp_path / "i.txt")
        assert predict(load_model(tmp_path / "i.txt"), []) == []

    def test_meta_round_trip_helpers(self, tmp_path):
        default = GraphParams()
        weights = LossWeights(0.5, 1.5, 0.0, normalized_e=True)
        data = tiny_dataset(6, seed=700)
        for radius in (None, 0.25):
            gp = GraphParams(k=4, tau=2e-4, variant="soft", radius=radius, e0_m=12,
                             e0_iters=20)
            assert all(getattr(gp, f.name) != getattr(default, f.name)
                       for f in dataclasses.fields(gp) if f.name != "radius")
            path = tmp_path / f"j_{radius}.txt"
            train(tiny_config(graph=gp, loss=weights), data, path)
            _, _, meta = nn.load_checkpoint(path)
            assert graph_params_from_meta(meta) == gp
            assert weights_from_meta(meta) == weights
            assert list(meta) == (["seed", "epoch", "val_total",
                                   *(f.name for f in dataclasses.fields(weights))]
                                  + [f"graph.{f.name}" for f in dataclasses.fields(gp)])
            model = load_model(path)
            assert (model.graph, model.weights, model.weights.normalized_e) == (gp, weights,
                                                                                True)

    def test_meta_key_order_is_pinned(self, tmp_path):
        train(tiny_config(seed=9), tiny_dataset(6, seed=900), tmp_path / "p.txt")
        _, _, meta = nn.load_checkpoint(tmp_path / "p.txt")
        assert list(meta) == ["seed", "epoch", "val_total", "lambda_pose", "lambda_frob",
                              "lambda_yaw", "normalized_e", "graph.k", "graph.tau",
                              "graph.variant", "graph.radius", "graph.e0_m",
                              "graph.e0_iters"]

    def test_schema_error_on_stripped_meta(self, tmp_path):
        data = tiny_dataset(6, seed=800)
        train(tiny_config(seed=8), data, tmp_path / "k.txt")
        text = open(tmp_path / "k.txt").read().splitlines()
        text = [ln for ln in text if not ln.startswith("meta graph.")]
        (tmp_path / "broken.txt").write_text("\n".join(text) + "\n")
        with pytest.raises(SchemaVersionError):
            load_model(tmp_path / "broken.txt")

    def test_predict_keeps_each_pairs_error(self, tmp_path):
        data = tiny_dataset(6, seed=1000)
        train(tiny_config(seed=10), data, tmp_path / "m.txt")
        model = load_model(tmp_path / "m.txt")
        bad = generate_scene(1, 7, (3, 10), small_pose(1))  # too few matches for E0
        res = predict(model, [data[0], bad, data[1]])
        assert isinstance(res[0], nn.ModelOutput) and isinstance(res[2], nn.ModelOutput)
        assert isinstance(res[1], InsufficientCorrespondencesError)
        # a pair's result does not depend on the pairs around it
        for out, alone in zip(res[::2], predict(model, data[:2])):
            assert np.array_equal(out.q, alone.q) and np.array_equal(out.t, alone.t)


def test_write_report_deterministic(tmp_path):
    data = tiny_dataset(6, seed=900)
    report = train(tiny_config(seed=9), data, tmp_path / "l.txt")
    write_report(report, tmp_path / "r1.txt")
    write_report(report, tmp_path / "r2.txt")
    assert open(tmp_path / "r1.txt").read() == open(tmp_path / "r2.txt").read()
    text = open(tmp_path / "r1.txt").read()
    assert text.startswith("# epigraph-train-report v1")
    assert f"best_epoch {report.best_epoch}" in text


def test_report_layout_the_benchmark_reads(tmp_path):
    """v1 layout: ``epoch <n> train <7 values> val <7 values>`` then four
    counts.  The benchmark reads the val total as token 17 and the counts
    as the last 8 tokens; the fifth value of each split is the retired
    spectral column, 0.0, or nan like the rest when no graph was built."""
    data = tiny_dataset(6, seed=1100)
    report = train(tiny_config(epochs=2, seed=11), data, tmp_path / "n.txt")
    # an epoch whose validation split built no graph
    report.epochs.append(EpochStats(3, report.epochs[-1].train_mean, _mean_breakdown([]),
                                    4, 0, 0, 1))
    write_report(report, tmp_path / "r.txt")
    lines = [ln.split() for ln in open(tmp_path / "r.txt") if ln.startswith("epoch ")]
    assert len(lines) == len(report.epochs)
    for tok, s in zip(lines, report.epochs):
        assert tok[:3] == ["epoch", str(s.epoch), "train"] and tok[10] == "val"
        assert len(tok) == 3 + 7 + 1 + 7 + 8
        assert float(tok[9]) == s.train_mean.total and tok[7] == "0.0"
        counts = {k: int(v) for k, v in zip(tok[-8::2], tok[-7::2])}
        assert counts == {"processed": s.processed, "skipped": s.skipped,
                          "val_processed": s.val_processed, "val_skipped": s.val_skipped}
    for tok, s in zip(lines[:-1], report.epochs):
        assert float(tok[17]) == s.val_mean.total and tok[15] == "0.0"
    assert lines[-1][11:18] == ["nan"] * 7
