"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Scene geometry choices (wide-FOV intrinsics for the
uniform-outlier rejection clauses, wide-baseline pairs for the overfit
run) are fixed here and explained in the repository README.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from epigraph import nn
from epigraph.cli import load_manifest, main
from epigraph.epipolar import estimate_E0, recover_pose
from epigraph.geom import (
    Intrinsics,
    Pose,
    essential_from_pose,
    quat_from_axis_angle,
    sampson_distances,
)
from epigraph.graph import Edges, EpipolarGraph, GraphParams, build_graph, sampson_filter
from epigraph.losses import TERM_GRADS, TERM_VALUES, PoseTarget, PredictionState, total_loss
from epigraph.metrics import dre, dte
from epigraph.synth import generate_scene, stress_scene
from epigraph.train import load_model, predict, split_dataset, train

WIDE_FOV = Intrinsics(100.0, 100.0, 320.0, 240.0)


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def unit_quat(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_edges(rng, n, degree):
    """``degree`` distinct random out-neighbors per node, weight 1."""
    src = np.repeat(np.arange(n), degree)
    dst = np.array([rng.choice([x for x in range(n) if x != i], degree, replace=False)
                    for i in range(n)], dtype=int).ravel()
    return Edges(src, dst, np.ones(len(dst)))


def pose_for(seed, rot_deg=6.0, tnorm=1.0):
    rng = np.random.default_rng(seed)
    t = rng.normal(size=3)
    t = tnorm * t / np.linalg.norm(t)
    if t[2] < 0:
        t = -t
    return Pose(quat_from_axis_angle(rng.normal(size=3), np.deg2rad(rot_deg)), t)


def test_criterion_1_classical_recovery():
    start = time.monotonic()
    worst_dre = worst_dte = 0.0
    for i in range(50):
        pose = pose_for(i)
        corr = generate_scene(2000 + i, 100, (3.0, 8.0), pose)
        sel = recover_pose(corr.normalized_points())
        worst_dre = max(worst_dre, dre(sel.rotation(), pose.rotation()))
        worst_dte = max(worst_dte, dte(sel.t, pose.t))
    noiseless_ok = worst_dre < 1e-4 and worst_dte < 1e-4

    dres, dtes = [], []
    for i in range(100):
        pose = pose_for(500 + i)
        corr = generate_scene(3000 + i, 100, (3.0, 8.0), pose, noise_px=0.5)
        sel = recover_pose(corr.normalized_points())
        dres.append(dre(sel.rotation(), pose.rotation()))
        dtes.append(dte(sel.t, pose.t))
    med_dre, med_dte = float(np.median(dres)), float(np.median(dtes))
    elapsed = time.monotonic() - start
    ok = noiseless_ok and med_dre < 0.5 and med_dte < 2.0 and elapsed < 30.0
    report("criterion 1 (classical recovery)", ok,
           f"noiseless worst DRE {worst_dre:.2e} deg / DTE {worst_dte:.2e} deg; "
           f"noisy median DRE {med_dre:.3f} deg / DTE {med_dte:.3f} deg; "
           f"{elapsed:.1f}s")


def test_criterion_2_sampson_filter_calibration():
    # clause A: E0 = E_gt, noiseless inliers vs uniform outliers at tau = 1e-4
    pose = Pose(quat_from_axis_angle([1, 0, 0], np.deg2rad(3)), [0.0, 0.4, 0.2])
    corr = generate_scene(42, 10000, (3.0, 10.0), pose, intrinsics=WIDE_FOV,
                          outlier_fraction=0.7)
    E_gt = essential_from_pose(pose)
    kept = set(sampson_filter(corr, E_gt, 1e-4).tolist())
    inliers = set(np.nonzero(corr.confidence == 1.0)[0].tolist())
    outliers = set(range(len(corr))) - inliers
    recall_gt = len(kept & inliers) / len(inliers)
    reject_gt = 1.0 - len(kept & outliers) / len(outliers)
    clause_a = recall_gt == 1.0 and reject_gt >= 0.99

    # clause B: E0 from estimate_E0 under the 30%-inlier preset, 20 seeds
    kept_in = kept_out = tot_in = tot_out = 0
    stress_pose = pose_for(77, rot_deg=5.0, tnorm=0.7)
    for seed in range(20):
        sc = stress_scene(seed, stress_pose, n_points=200)
        E0 = estimate_E0(sc, seed=seed)
        k = set(sampson_filter(sc, E0, 1e-4).tolist())
        inl = set(np.nonzero(sc.confidence == 1.0)[0].tolist())
        out = set(range(len(sc))) - inl
        kept_in += len(k & inl)
        kept_out += len(k & out)
        tot_in += len(inl)
        tot_out += len(out)
    recall_e0 = kept_in / tot_in
    reject_e0 = 1.0 - kept_out / tot_out
    clause_b = recall_e0 >= 0.90 and reject_e0 >= 0.95

    report("criterion 2 (Sampson filter calibration)", clause_a and clause_b,
           f"E_gt: recall {recall_gt:.4f}, rejection {reject_gt:.4f}; "
           f"E0: recall {recall_e0:.4f}, rejection {reject_e0:.4f}")


def test_criterion_3_gradient_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    n = 12
    feats = rng.normal(size=(n, 6))
    g = EpipolarGraph(feats, random_edges(rng, n, 3), np.arange(n))
    gtensors = nn.graph_tensors(g)
    target = PoseTarget.from_pose(Pose(unit_quat(rng), rng.normal(size=3)))

    worst = 0.0
    ok = True
    for preset in ("GAT+2GCN", "3GCN+GAT", "GIN_SumPool"):
        rep = nn.grad_check(nn.preset_config(preset), gtensors, target,
                            seed=13, h=1e-6, tolerance=1e-5)
        worst = max(worst, max(e.rel_err for e in rep))
        ok = ok and all(e.ok for e in rep)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report("criterion 3 (gradient fidelity)", ok,
           f"worst relative error {worst:.2e} over 3 presets x {len(TERM_GRADS)} "
           f"loss terms; {elapsed:.1f}s")


def test_criterion_4_permutation_invariance():
    rng = np.random.default_rng(21)
    n = 20
    feats = rng.normal(size=(n, 6))
    edges = random_edges(rng, n, 4)
    cfg = nn.preset_config("3GCN+GAT")
    params = nn.init_params(cfg, seed=2)
    g = EpipolarGraph(feats, edges, np.arange(n))
    base, _ = nn.model_forward(nn.graph_tensors(g), params, cfg)
    worst = 0.0
    for _ in range(100):
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)
        pedges = Edges(inv[edges.src], inv[edges.dst], edges.weight)
        pg = EpipolarGraph(feats[perm], pedges, np.arange(n))
        out, _ = nn.model_forward(nn.graph_tensors(pg), params, cfg)
        worst = max(worst,
                    float(np.abs(out.q - base.q).max()),
                    float(np.abs(out.t - base.t).max()))
    report("criterion 4 (permutation invariance)", worst < 1e-10,
           f"max |delta| over 100 permutations = {worst:.2e}")


def test_criterion_5_manifold_identity_suite():
    rng = np.random.default_rng(31)
    # [t]x R has singular values (|t|, |t|, 0): (s1 - s2)^2 + s3^2 vanishes
    worst_svd = 0.0
    for _ in range(1000):
        t = rng.normal(size=3)
        pose = Pose(unit_quat(rng), t / np.linalg.norm(t))
        s = np.linalg.svd(essential_from_pose(pose), compute_uv=False)
        worst_svd = max(worst_svd, (s[0] - s[1]) ** 2 + s[2] ** 2)
    svd_ok = worst_svd < 1e-12

    hemi_ok = True
    for _ in range(100):
        q = unit_quat(rng)
        flipped = PredictionState(-q, np.zeros(3)).check_unit()
        hemi_ok = hemi_ok and TERM_VALUES["quat"](flipped, PoseTarget(q, None, None)) == 0.0

    worst_dre_gap = 0.0
    for deg in range(1, 180):
        axis = rng.normal(size=3)
        R = Pose(quat_from_axis_angle(axis, np.deg2rad(deg)), [0, 0, 0]).rotation()
        worst_dre_gap = max(worst_dre_gap, abs(dre(R, np.eye(3)) - deg))
    dre_ok = worst_dre_gap < 1e-9

    from epigraph.metrics import chain
    from epigraph.geom import relative_pose
    from epigraph.synth import generate_trajectory
    gt = generate_trajectory(5, 25, "random-walk")
    rels = [relative_pose(a, b) for a, b in zip(gt.poses, gt.poses[1:])]
    rebuilt = chain(rels, start=gt.poses[0], fps=gt.fps)
    worst_chain = max(np.abs(a.matrix() - b.matrix()).max()
                      for a, b in zip(gt.poses, rebuilt.poses))
    chain_ok = worst_chain < 1e-9

    ok = svd_ok and hemi_ok and dre_ok and chain_ok
    report("criterion 5 (manifold/identity suite)", ok,
           f"svd max {worst_svd:.1e}; hemisphere exact {hemi_ok}; "
           f"DRE gap max {worst_dre_gap:.1e} deg; chain gap max {worst_chain:.1e}")


@pytest.fixture(scope="module")
def overfit_artifacts(tmp_path_factory):
    """Criterion-6 training run; criterion 7 reuses nothing from it.

    16 wide-baseline pairs (random-walk trajectory, 0.5 s spacing) give the
    direction head enough signal to overfit at the pinned lr within the
    epoch budget."""
    from epigraph.cli import synthesize_dataset
    from epigraph.config import DatasetSection, ExperimentConfig, ModelSection, TrainSection

    root = tmp_path_factory.mktemp("overfit")
    cfg = ExperimentConfig(seed=7, dataset=DatasetSection(
        kind="synthetic", n_frames=21, motion="random-walk",
        spacings=(0.5,), n_points=60))
    _, corrs = synthesize_dataset(cfg)
    assert len(corrs) == 16
    tcfg = replace(cfg, model=ModelSection("3GCN+GAT"),
                   train=TrainSection(batch_size=4, lr=1e-4, epochs=500, split=0.8))
    start = time.monotonic()
    rep = train(tcfg, corrs, os.path.join(root, "best.ckpt"),
                final_checkpoint_path=os.path.join(root, "final.ckpt"))
    elapsed = time.monotonic() - start
    return root, corrs, rep, elapsed


def test_criterion_6_overfit_sanity(overfit_artifacts):
    root, corrs, rep, elapsed = overfit_artifacts
    first = rep.epochs[0].train_mean.total
    last = rep.epochs[-1].train_mean.total
    train_set, _ = split_dataset(corrs, 0.8, 7)
    model = load_model(os.path.join(root, "final.ckpt"))
    results = []
    for out, corr in zip(predict(model, train_set), train_set):
        target = PoseTarget.from_pose(corr.gt_relative, model.weights.normalized_e)
        results.append((Pose(out.q, out.t), corr.gt_relative,
                        total_loss(out.q, out.t, target, model.weights)))
    mean_dre = float(np.mean([dre(p.rotation(), g.rotation())
                              for p, g, _ in results]))
    mean_dte = float(np.mean([dte(p.t, g.t) for p, g, _ in results]))
    mean_quat = float(np.mean([bd.quat for _, _, bd in results]))
    ok = (last < 0.1 * first and mean_dre < 2.0 and mean_dte < 10.0
          and mean_quat < 0.05 and elapsed < 600.0)
    report("criterion 6 (overfit sanity)", ok,
           f"loss {first:.3f} -> {last:.3f} (ratio {last / first:.3f}); "
           f"train-set mean DRE {mean_dre:.2f} deg, DTE {mean_dte:.2f} deg, "
           f"quat loss {mean_quat:.4f}; {elapsed:.0f}s")


def test_criterion_7_temporal_spacing_pipeline(tmp_path):
    root = tmp_path / "pipeline"
    base = ["--set", f"run.out_root={root}",
            "--set", "dataset.n_frames=24",
            "--set", "dataset.n_points=40",
            "--set", "model.hidden=16",
            "--set", "train.epochs=2"]
    rc = main(["generate"] + base + ["--set", "dataset.spacings=0.1,0.5,1.0"])
    assert rc == 0

    from epigraph.cli import _spacing_tag

    counts_ok = True
    details = []
    for s, d in ((0.1, 1), (0.5, 5), (1.0, 10)):
        _, corrs, info = load_manifest(
            root / "dataset" / f"manifest_s{_spacing_tag(s)}.txt")
        counts_ok = counts_ok and info["step"] == d and len(corrs) == 24 - d
        details.append(f"s={s}: d={info['step']} pairs={len(corrs)}")

    manifest = str(root / "dataset" / "manifest_s0p5.txt")
    file_args = ["--set", "dataset.kind=files", "--set", f"dataset.manifest={manifest}"]
    assert main(["train"] + base + file_args) == 0
    assert main(["eval"] + base + file_args) == 0

    # independent recomputation of every CSV value with inline matrix code
    _, corrs, info = load_manifest(manifest)
    outs = predict(load_model(root / "checkpoint.txt"), corrs)
    preds = {c.pair_id: Pose(o.q, o.t) for c, o in zip(corrs, outs)}

    def angle_deg(c):
        return np.degrees(np.arccos(np.clip(c, -1.0, 1.0)))

    exp_pairs = {}
    for c in corrs:
        p, g = preds[c.pair_id], c.gt_relative
        Rp, Rg = p.rotation(), g.rotation()
        e_dre = angle_deg((np.trace(Rg.T @ Rp) - 1.0) / 2.0)
        e_dte = angle_deg(p.t @ g.t / (np.linalg.norm(p.t) * np.linalg.norm(g.t)))
        exp_pairs[f"{c.pair_id[0]}:{c.pair_id[1]}:{c.pair_id[2]}"] = (e_dre, e_dte)

    pair_gap = 0.0
    lines = open(root / "out" / "model_pairs.csv").read().splitlines()[1:]
    assert len(lines) == len(corrs)
    for ln in lines:
        pid, a, b = ln.split(",")
        ea, eb = exp_pairs[pid]
        pair_gap = max(pair_gap, abs(float(a) - ea), abs(float(b) - eb))

    # chain the stride-d subsequence: (0, d), (d, 2d), ...
    d = info["step"]
    by_start = {c.pair_id[1]: c for c in corrs}
    Tp = np.eye(4)
    Tg = np.eye(4)
    exp_frames = [(0.0, 0.0)]
    i = 0
    while i in by_start:
        c = by_start[i]
        Tp = Tp @ preds[c.pair_id].matrix()
        Tg = Tg @ c.gt_relative.matrix()
        e_ape = np.linalg.norm(Tp[:3, 3] - Tg[:3, 3])
        e_aper = angle_deg((np.trace(Tg[:3, :3].T @ Tp[:3, :3]) - 1.0) / 2.0)
        exp_frames.append((float(e_ape), float(e_aper)))
        i = c.pair_id[2]

    frame_gap = 0.0
    flines = open(root / "out" / "model_frames.csv").read().splitlines()[1:]
    assert len(flines) == len(exp_frames)
    ape_sq = []
    for ln, (ea, eb) in zip(flines, exp_frames):
        _, a, b = ln.split(",")
        frame_gap = max(frame_gap, abs(float(a) - ea), abs(float(b) - eb))
        ape_sq.append(float(a) ** 2)
    summary = json.load(open(root / "out" / "model_summary.json"))
    ate_gap = abs(summary["ate_m"] - float(np.sqrt(np.mean(ape_sq))))

    ok = counts_ok and pair_gap < 1e-9 and frame_gap < 1e-9 and ate_gap < 1e-9
    report("criterion 7 (temporal-spacing pipeline)", ok,
           "; ".join(details) + f"; recomputation gaps: pairs {pair_gap:.1e}, "
           f"frames {frame_gap:.1e}, ate {ate_gap:.1e}")


def test_criterion_8_knn_variant_sweep(tmp_path):
    root = tmp_path / "bench"
    rc = main(["bench-knn",
               "--set", f"run.out_root={root}",
               "--set", "dataset.n_frames=9",
               "--set", "dataset.n_points=40",
               "--set", "model.hidden=16",
               "--epochs", "2"])
    table_ok = rc == 0
    lines = open(root / "knn_bench.csv").read().splitlines()
    variants = [ln.split(",")[0] for ln in lines[1:]]
    table_ok = table_ok and variants == ["hard", "soft", "radius", "mutual"]

    # structural assertions on one representative graph per variant
    pose = pose_for(3, rot_deg=4.0, tnorm=0.6)
    corr = generate_scene(55, 60, (3.0, 10.0), pose)
    E0 = essential_from_pose(pose)
    hard = build_graph(corr, params=GraphParams(variant="hard"), E0=E0)
    mutual = build_graph(corr, params=GraphParams(variant="mutual"), E0=E0)
    soft = build_graph(corr, params=GraphParams(variant="soft"), E0=E0)
    radius = build_graph(corr, params=GraphParams(variant="radius"), E0=E0)

    hard_set = set(zip(hard.edges.src.tolist(), hard.edges.dst.tolist()))
    mutual_ok = set(zip(mutual.edges.src.tolist(), mutual.edges.dst.tolist())) <= hard_set
    r = radius.meta["radius"]
    coords = radius.node_features[:, :3]
    radius_ok = all(np.linalg.norm(coords[s] - coords[d]) < r
                    for s, d in zip(radius.edges.src, radius.edges.dst))
    soft_ws = soft.edges.weight
    soft_ok = soft_ws.min() > 0.0 and soft_ws.max() <= 1.0

    ok = table_ok and mutual_ok and radius_ok and soft_ok
    report("criterion 8 (k-NN variant sweep)", ok,
           f"table rows {variants}; mutual subset of hard: {mutual_ok}; "
           f"radius bound: {radius_ok}; soft weights in (0, 1]: {soft_ok}")


def test_criterion_9_determinism(tmp_path):
    def run_all(root):
        base = ["--set", f"run.out_root={root}",
                "--set", "dataset.n_frames=10",
                "--set", "dataset.n_points=30",
                "--set", "model.hidden=16",
                "--set", "train.epochs=2"]
        assert main(["generate"] + base) == 0
        manifest = os.path.join(root, "dataset", "manifest_s0p1.txt")
        file_args = ["--set", "dataset.kind=files",
                     "--set", f"dataset.manifest={manifest}"]
        assert main(["train"] + base + file_args) == 0
        assert main(["eval"] + base + file_args
                    + ["--set", "eval.baseline=eightpoint"]) == 0
        assert main(["export-embeddings"] + base + file_args + ["--layer", "1"]) == 0

    run_all(str(tmp_path / "r1"))
    run_all(str(tmp_path / "r2"))

    mismatches = []
    count = 0
    for dirpath, _, files in os.walk(tmp_path / "r1"):
        for name in files:
            p1 = os.path.join(dirpath, name)
            rel = os.path.relpath(p1, tmp_path / "r1")
            p2 = os.path.join(tmp_path / "r2", rel)
            count += 1
            if open(p1, "rb").read() != open(p2, "rb").read():
                mismatches.append(rel)
    ok = count > 10 and not mismatches
    report("criterion 9 (determinism)", ok,
           f"{count} files byte-compared across generate/train/eval/"
           f"export-embeddings; mismatches: {mismatches or 'none'}")
