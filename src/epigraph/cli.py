"""Command-line entry point.

Subcommands: generate, train, eval, export-embeddings, gradcheck,
bench-knn.  Exit codes: 0 success, 1 tolerance failure, 2 usage/config
error, 3 I/O error.  Every command is deterministic given the config and
seed; all randomness flows from the top-level seed through named
substreams.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import epipolar, metrics, nn, synth, train as train_mod
from .config import ExperimentConfig, parse_config
from .errors import (
    ConfigError,
    EpigraphError,
    FormatError,
    EmptySamplingError,
    SchemaVersionError,
    ValidationError,
)
from .geom import Pose
from .graph import build_graph  # noqa: F401  re-exported as cli.build_graph
from .losses import PoseTarget
from .seeding import subseed
from .synth import (
    SamplingSpec,
    _fmt,
    generate_scene,
    generate_trajectory,
    load_correspondences,
    load_trajectory,
    sample_pairs,
    save_correspondences,
    save_trajectory,
)

MANIFEST_HEADER = "# epigraph-manifest v1"
# manifest record -> type of its one value
_MANIFEST_RECORDS = {"trajectory": str, "fps": float, "spacing": float, "step": int,
                     "sequence": str}


# ---------------------------------------------------------------------------
# Dataset assembly
# ---------------------------------------------------------------------------

def _spacing_tag(s: float) -> str:
    return ("%g" % s).replace(".", "p")


def _trajectory(cfg: ExperimentConfig):
    ds = cfg.dataset
    return generate_trajectory(subseed(cfg.seed, "dataset", "trajectory"),
                               ds.n_frames, ds.motion, fps=ds.fps, step_m=ds.step_m)


def _scene(cfg: ExperimentConfig, pair):
    """The synthetic correspondence set of one sampled pair; deterministic."""
    ds = cfg.dataset
    return generate_scene(
        subseed(cfg.seed, "dataset", ds.sequence, pair.i, pair.j), ds.n_points,
        (ds.depth_min, ds.depth_max), pair.gt_relative, ds.intrinsics(),
        ds.noise_px, ds.outlier_fraction, ds.width, ds.height,
        pair_id=(ds.sequence, pair.i, pair.j))


def synthesize_dataset(cfg: ExperimentConfig):
    """In-memory pairs for every configured spacing; deterministic."""
    traj = _trajectory(cfg)
    corrs = [_scene(cfg, pair) for s in cfg.dataset.spacings
             for pair in sample_pairs(traj, SamplingSpec(s, fps=cfg.dataset.fps))]
    return traj, corrs


def write_manifest(path, traj_rel: str, fps: float, spacing: float, step: int,
                   sequence: str, entries) -> None:
    lines = [MANIFEST_HEADER,
             f"trajectory {traj_rel}",
             f"fps {_fmt(fps)}",
             f"spacing {_fmt(spacing)}",
             f"step {step}",
             f"sequence {sequence}"]
    for (seq, i, j, rel) in entries:
        lines.append(f"pair {seq} {i} {j} {rel}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_manifest(path):
    """Returns (trajectory, correspondence sets, info dict)."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path) as f:
        raw = f.read().splitlines()
    if not raw or raw[0] != MANIFEST_HEADER:
        raise SchemaVersionError("missing or unsupported manifest header", line=1)
    info = {}
    corrs = []
    traj = None
    for ln, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "pair":
            if len(parts) != 5:
                raise FormatError("pair lines need: pair seq i j path", line=ln)
            corrs.append(load_correspondences(os.path.join(base, parts[4])))
        elif parts[0] in _MANIFEST_RECORDS:
            try:
                (value,) = parts[1:]
                info[parts[0]] = _MANIFEST_RECORDS[parts[0]](value)
            except ValueError:
                raise FormatError(f"bad {parts[0]} record {line!r}", line=ln) from None
        else:
            raise FormatError(f"unknown manifest record {parts[0]!r}", line=ln)
    if "trajectory" in info:
        traj = load_trajectory(os.path.join(base, info["trajectory"]),
                               fps=info.get("fps", 10.0))
    return traj, corrs, info


def load_dataset(cfg: ExperimentConfig):
    """Dataset per config: synthesized or loaded from manifest files."""
    if cfg.dataset.kind == "synthetic":
        return synthesize_dataset(cfg)
    traj, corrs, info = load_manifest(cfg.dataset.manifest)
    if cfg.dataset.check_intrinsics:
        want = cfg.dataset.intrinsics()
        for corr in corrs:
            have = corr.intrinsics
            if max(abs(have.fx - want.fx), abs(have.fy - want.fy),
                   abs(have.cx - want.cx), abs(have.cy - want.cy)) > 1e-9:
                raise ValidationError(
                    f"pair {corr.pair_label()}: file intrinsics {have} do not "
                    f"match the configured intrinsics {want}")
    return traj, corrs


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(cfg: ExperimentConfig) -> int:
    ds = cfg.dataset
    root = cfg.resolved_out_root()
    out = os.path.join(root, "dataset")
    os.makedirs(out, exist_ok=True)
    traj = _trajectory(cfg)
    save_trajectory(traj, os.path.join(out, "trajectory.txt"))
    for s in ds.spacings:
        spec = SamplingSpec(s, fps=ds.fps)
        pairs = sample_pairs(traj, spec)
        tag = _spacing_tag(s)
        pair_dir = f"pairs_s{tag}"
        os.makedirs(os.path.join(out, pair_dir), exist_ok=True)
        entries = []
        for pair in pairs:
            rel = os.path.join(pair_dir, f"pair_{pair.i:05d}_{pair.j:05d}.txt")
            save_correspondences(_scene(cfg, pair), os.path.join(out, rel))
            entries.append((ds.sequence, pair.i, pair.j, rel))
        write_manifest(os.path.join(out, f"manifest_s{tag}.txt"),
                       "trajectory.txt", ds.fps, s, spec.step, ds.sequence, entries)
        print(f"wrote {len(entries)} pairs at spacing {s}s (step {spec.step}) "
              f"under {os.path.join(out, pair_dir)}")
    return 0


def _train_config(cfg: ExperimentConfig, graph, epochs: int) -> train_mod.TrainConfig:
    return train_mod.TrainConfig(
        model=cfg.model_config(), graph=graph, weights=cfg.weights(),
        batch_size=cfg.train.batch_size, lr=cfg.train.lr, epochs=epochs,
        split=cfg.train.split, seed=cfg.seed, normalized_e=cfg.loss.normalized_e)


def cmd_train(cfg: ExperimentConfig, checkpoint: str | None) -> int:
    _, corrs = load_dataset(cfg)
    root = cfg.resolved_out_root()
    os.makedirs(root, exist_ok=True)
    ckpt_path = checkpoint or os.path.join(root, "checkpoint.txt")
    report = train_mod.train(_train_config(cfg, cfg.graph, cfg.train.epochs),
                             corrs, ckpt_path)
    report_path = os.path.join(root, "train_report.txt")
    train_mod.write_report(report, report_path)
    print(f"best epoch {report.best_epoch} "
          f"(val total {_fmt(report.best_val_total)}); "
          f"checkpoint: {ckpt_path}; report: {report_path}")
    return 0


def _chain_indices(corrs):
    """Indices of the stride-d subsequence used for trajectory chaining:
    the walk starts at the earliest pair and repeatedly follows each
    pair's end frame to the pair that starts there."""
    by_start = {c.pair_id[1]: idx for idx, c in enumerate(corrs)}
    if not by_start:
        return []
    i = min(by_start)
    out = []
    while i in by_start:
        idx = by_start[i]
        out.append(idx)
        i = corrs[idx].pair_id[2]
    return out


def _write_reports(prefix: str, corrs, poses, out_dir, fps: float) -> dict:
    """Pair, frame and summary reports of one pose source over ``corrs``,
    and its chained trajectory ``<prefix>_traj.txt``; returns the report
    paths."""
    chain_idx = _chain_indices(corrs)
    rec = metrics.build_record([c.pair_label() for c in corrs], poses,
                               [c.gt_relative for c in corrs], chain_idx, fps=fps)
    save_trajectory(metrics.chain([poses[i] for i in chain_idx], fps=fps),
                    os.path.join(out_dir, f"{prefix}_traj.txt"))
    return metrics.run_report(rec, out_dir, prefix=prefix)


def cmd_eval(cfg: ExperimentConfig, checkpoint: str | None) -> int:
    _, corrs = load_dataset(cfg)
    root = cfg.resolved_out_root()
    out_dir = os.path.join(root, cfg.eval.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    ckpt_path = checkpoint or os.path.join(root, "checkpoint.txt")

    model = train_mod.load_model(ckpt_path)

    for corr in corrs:
        if corr.gt_relative is None:
            raise ValidationError(f"pair {corr.pair_label()} has no ground truth")
    # a pair whose graph or forward pass fails is skipped and listed
    usable, preds, skipped = [], [], []
    for corr, out in zip(corrs, train_mod.predict(model, corrs)):
        if isinstance(out, EpigraphError):
            skipped.append(f"{corr.pair_label()} ({type(out).__name__})")
            continue
        usable.append(corr)
        preds.append(Pose(out.q, out.t))
    if not usable:
        raise ValidationError("no pair produced a usable graph")

    fps = cfg.dataset.fps
    paths = _write_reports("model", usable, preds, out_dir, fps)
    gt_chain = [usable[i].gt_relative for i in _chain_indices(usable)]
    save_trajectory(metrics.chain(gt_chain, fps=fps), os.path.join(out_dir, "gt_traj.txt"))

    base_failed = []
    if cfg.eval.baseline == "eightpoint":
        # a pair the baseline cannot solve is left out of its report only
        base_usable, base_preds = [], []
        for corr in usable:
            try:
                base_preds.append(epipolar.recover_pose(corr.normalized_points()))
            except EpigraphError as e:
                base_failed.append(f"{corr.pair_label()} ({type(e).__name__})")
                continue
            base_usable.append(corr)
        _write_reports("eightpoint", base_usable, base_preds, out_dir, fps)

    if skipped:
        print(f"skipped {len(skipped)} unbuildable pairs: {', '.join(skipped)}")
    if base_failed:
        print(f"eight-point baseline failed on {len(base_failed)} pairs: "
              f"{', '.join(base_failed)}")
    print(f"evaluated {len(usable)} pairs; reports under {out_dir}")
    for kind, p in paths.items():
        print(f"  {kind}: {p}")
    return 0


def cmd_export_embeddings(cfg: ExperimentConfig, checkpoint: str | None,
                          layer: int, out_path: str | None) -> int:
    _, corrs = load_dataset(cfg)
    root = cfg.resolved_out_root()
    ckpt_path = checkpoint or os.path.join(root, "checkpoint.txt")
    model = train_mod.load_model(ckpt_path)
    if not (0 <= layer <= len(model.config.layers)):
        raise ConfigError(f"layer {layer} out of range 0..{len(model.config.layers)}")
    path = out_path or os.path.join(root, f"embeddings_layer{layer}.csv")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    n_rows = 0
    with open(path, "w") as f:
        header_written = False
        for corr in corrs:
            # each graph is used once, so a cache per pair keeps no tensors alive
            gtensors = train_mod.GraphCache().get(corr, model.graph)
            H, z = nn.forward_embeddings(gtensors, model.params, model.config, layer)
            if not header_written:
                cols = ",".join(f"e{i}" for i in range(H.shape[1]))
                f.write(f"pair_id,node,{cols}\n")
                header_written = True
            pid = corr.pair_label()
            for node, row in enumerate(H):
                f.write(f"{pid},{node}," + ",".join(_fmt(v) for v in row) + "\n")
            f.write(f"{pid},-1," + ",".join(_fmt(v) for v in z) + "\n")
            n_rows += len(H) + 1
    print(f"wrote {n_rows} embedding rows to {path}")
    return 0


def cmd_gradcheck(presets, tolerance: float, corrupt: str | None, seed: int) -> int:
    rng = np.random.default_rng(subseed(seed, "gradcheck"))
    n = 12
    feats = rng.normal(size=(n, 6))
    dst = np.concatenate([rng.choice([x for x in range(n) if x != i], 3, replace=False)
                          for i in range(n)])
    from .graph import Edges, EpipolarGraph
    edges = Edges(np.repeat(np.arange(n), 3), dst, np.ones(len(dst)))
    gtensors = nn.graph_tensors(EpipolarGraph(feats, edges, np.arange(n)))
    q = rng.normal(size=4)
    gt_pose = Pose(q / np.linalg.norm(q), rng.normal(size=3))
    target = PoseTarget.from_pose(gt_pose)

    failures = 0
    rows = 0
    for name in presets:
        config = nn.preset_config(name)
        report = nn.grad_check(config, gtensors, target,
                               seed=subseed(seed, "gradcheck", name),
                               tolerance=tolerance, corrupt=corrupt)
        by_term: dict[str, float] = {}
        for entry in report:
            by_term[entry.term] = max(by_term.get(entry.term, 0.0), entry.rel_err)
            if not entry.ok:
                failures += 1
            rows += 1
        for term, worst in by_term.items():
            status = "ok" if worst < tolerance else "FAIL"
            print(f"{name:12s} {term:8s} max_rel_err {worst:.3e} {status}")
    if rows == 0:
        print("empty report")
    return 1 if failures else 0


def cmd_bench_knn(cfg: ExperimentConfig, epochs: int | None) -> int:
    from dataclasses import replace

    root = cfg.resolved_out_root()
    os.makedirs(root, exist_ok=True)
    out_csv = os.path.join(root, "knn_bench.csv")
    _, corrs = load_dataset(cfg)
    chain_idx = _chain_indices(corrs)
    rows = []
    for variant in ("hard", "soft", "radius", "mutual"):
        gp = replace(cfg.graph, variant=variant,
                     radius=None if variant == "radius" else cfg.graph.radius)
        # each graph is built once, here for its stats; train and predict reuse it
        cache = train_mod.GraphCache()
        n_nodes, n_edges, wmin, wmax = [], [], np.inf, -np.inf
        for corr in corrs:
            g = cache.build(corr, gp)
            n_nodes.append(g.n_nodes)
            n_edges.append(len(g.edges))
            if len(g.edges):
                w = g.edges.weight
                wmin, wmax = min(wmin, float(w.min())), max(wmax, float(w.max()))

        ckpt = os.path.join(root, f"bench_{variant}.ckpt")
        train_mod.train(_train_config(cfg, gp, epochs or cfg.train.epochs), corrs, ckpt,
                        cache=cache)
        preds = []
        for out in train_mod.predict(train_mod.load_model(ckpt), corrs, cache):
            if isinstance(out, EpigraphError):
                raise out
            preds.append(Pose(out.q, out.t))
        rec = metrics.build_record([c.pair_label() for c in corrs], preds,
                                   [c.gt_relative for c in corrs], chain_idx,
                                   fps=cfg.dataset.fps)
        s = rec.summary()
        rows.append((variant, s["ate_m"], s["ape_m_mean"], s["ape_r_deg_mean"],
                     s["dte_deg_mean"], s["dre_deg_mean"],
                     float(np.mean(n_nodes)), float(np.mean(n_edges)),
                     wmin if np.isfinite(wmin) else 0.0,
                     wmax if np.isfinite(wmax) else 0.0))
        print(f"{variant}: ate={s['ate_m']:.4f} ape={s['ape_m_mean']:.4f} "
              f"dre={s['dre_deg_mean']:.4f} dte={s['dte_deg_mean']:.4f}")

    with open(out_csv, "w") as f:
        f.write("variant,ate_m,ape_mean_m,ape_r_mean_deg,dte_mean_deg,"
                "dre_mean_deg,nodes_mean,edges_mean,weight_min,weight_max\n")
        for r in rows:
            f.write(r[0] + "," + ",".join(_fmt(v) for v in r[1:]) + "\n")
    print(f"variant table: {out_csv}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="epigraph",
        description="Two-view relative pose estimation over epipolar graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config file (INI)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override any config field (repeatable)")

    common(sub.add_parser("generate", help="write a synthetic dataset"))
    p = sub.add_parser("train", help="train a model and checkpoint the best epoch")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint output path")
    p = sub.add_parser("eval", help="evaluate a checkpoint, optionally vs eight-point")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint to evaluate")
    p = sub.add_parser("export-embeddings", help="dump node/pooled embeddings as CSV")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint to read")
    p.add_argument("--layer", type=int, default=0, help="0 = input features")
    p.add_argument("--out", help="CSV output path")
    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    p.add_argument("--presets", default=",".join(nn.PRESET_NAMES),
                   help="comma list of presets; empty string checks nothing")
    p.add_argument("--tolerance", type=float, default=1e-5)
    p.add_argument("--corrupt", help="tensor name to corrupt (detector self-test)")
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("bench-knn", help="edge-variant sweep with a small train run")
    common(p)
    p.add_argument("--epochs", type=int, help="override training epochs per variant")
    return ap


def _dispatch(args) -> int:
    if args.command == "gradcheck":
        presets = [s for s in args.presets.split(",") if s.strip()]
        return cmd_gradcheck(presets, args.tolerance, args.corrupt, args.seed)
    cfg = parse_config(args.config, args.overrides)
    if args.command == "generate":
        return cmd_generate(cfg)
    if args.command == "train":
        return cmd_train(cfg, args.checkpoint)
    if args.command == "eval":
        return cmd_eval(cfg, args.checkpoint)
    if args.command == "export-embeddings":
        return cmd_export_embeddings(cfg, args.checkpoint, args.layer, args.out)
    if args.command == "bench-knn":
        return cmd_bench_knn(cfg, args.epochs)
    raise ConfigError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, ValidationError, EmptySamplingError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 3
    except EpigraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
