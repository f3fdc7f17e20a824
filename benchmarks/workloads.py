"""The benchmark's three workloads: train, eval and gradcheck.

Each workload makes its inputs from the seed in ``setup``, does one unit
of timed work per ``job`` call and checks the outputs of all its jobs in
``check``.  A job also reports the times of the slots it splits into, so
that ``fastest_seconds`` can give the time of one job at the fastest speed
its repeats saw (README.md says why).  ``spans`` names the traced
functions its job must call and ``setup_spans`` those its set-up must
call.  The program is driven in-process, through the CLI entry point
where a CLI command is the job, so the program only ever sees the
generated inputs.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from epigraph import cli, config, epipolar, losses, metrics, nn, synth
from epigraph import train as train_mod
from epigraph.errors import EpigraphError
from epigraph.geom import Pose

import tracing


class JobError(RuntimeError):
    """A job could not run as planned: a CLI command in it exited with a
    non-zero code, or the program no longer splits into the slots the
    timing expects."""


@dataclass
class Outcome:
    """What one timed job did."""

    ops: int                      # units of work: passes, pairs or probes
    attempted: int                # operations tried (the failure base)
    failed: int
    failures: Counter = field(default_factory=Counter)   # by exception class
    digests: dict = field(default_factory=dict)          # artifact -> sha256
    quality: dict = field(default_factory=dict)          # guard values
    detail: dict = field(default_factory=dict)           # for ``check`` only
    slots: np.ndarray | None = None   # seconds of each slot of the job, in order
    alike: np.ndarray | None = None   # per slot: 0, or a group of slots doing like work
    seconds: float = 0.0
    error: str | None = None


def run_cli(command: str, sets: list[str], *extra) -> None:
    """``epigraph <command> --set ... <extra>`` in-process, output captured;
    raises JobError on a non-zero exit code."""
    argv = [command, *(a for s in sets for a in ("--set", s)), *map(str, extra)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        raise JobError(f"epigraph {command} exited {rc}: {err.getvalue().strip()}")


def overrides(**fields) -> list[str]:
    """Config overrides ``section.key=value``; ``run_seed`` -> ``run.seed``."""
    return [key.replace("_", ".", 1) + f"={value}" for key, value in fields.items()]


@contextlib.contextmanager
def call_times(fn):
    """Yield a list that gets the start time of every call of ``fn`` made
    through any epigraph binding while the block runs."""
    stamps = []

    def stamped(*args, **kwargs):
        stamps.append(time.perf_counter())
        return fn(*args, **kwargs)

    patches = tracing.replace_everywhere(fn, stamped)
    try:
        yield stamps
    finally:
        tracing.restore(patches)


def fastest_seconds(outcomes) -> float:
    """Time of one job from the slot times of its repeats: every slot at its
    fastest over the repeats, except that the slots of one ``alike`` group
    all count at the fastest of any of them."""
    slots = np.array([o.slots for o in outcomes]).min(axis=0)
    alike = outcomes[0].alike
    total = slots[alike == 0].sum()
    for group in np.unique(alike[alike > 0]):
        total += slots[alike == group].min() * np.count_nonzero(alike == group)
    return float(total)


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def same_digests(outcomes) -> list[str]:
    first = outcomes[0].digests
    return [f"{name} differs between repeat 1 and repeat {i + 1}"
            for i, o in enumerate(outcomes[1:], start=1)
            for name in sorted(set(first) | set(o.digests))
            if first.get(name) != o.digests.get(name)]


def _manifest(root) -> str:
    return os.path.join(root, "dataset", "manifest_s0p1.txt")


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

class Train:
    """``epigraph train`` with the default protocol on a generated files
    dataset: random-walk motion, 80 pairs of N=80 clean matches.

    A slot runs from the start of one optimizer step to the next.  The 64
    training pairs make 16 full batches of 4 per epoch, and the dense model
    costs the same on every N=80 graph, so the slots within an epoch do like
    work: those of the first epoch, whose batches also build their graphs,
    form one group, and those of later epochs another.  An epoch's first slot
    also runs the previous epoch's validation and checkpoint write.
    """

    name = "train"
    ops_metric = "train.samples_per_s"
    quality_units = {"train.best_val_total": "loss"}
    min_repeats = 3
    # the best validation loss may be at most this share of epoch 1's;
    # seeds 0-29 give 0.23-0.63
    max_val_ratio = 0.8
    setup_spans = ("synth.generate_scene",)
    spans = ("synth.load_correspondences", "cli.load_manifest",
             "graph.build_graph", "graph.build_edges",
             "graph.sampson_filter", "epipolar.estimate_E0",
             "epipolar.solve_eight_point", "nn.model_forward",
             "nn.model_backward", "nn.gcn_forward", "nn.gcn_backward",
             "nn.gat_forward", "nn.gat_backward", "nn.graph_tensors",
             "nn.adam_step", "nn.save_checkpoint", "losses.total_loss_grad",
             "losses.total_loss", "train.train")

    def __init__(self, out_dir, seed: int, frames: int = 81, points: int = 80,
                 epochs: int = 12):
        self.seed, self.frames, self.points, self.epochs = seed, frames, points, epochs
        self.data = os.path.join(out_dir, "data")
        self.run_dir = os.path.join(out_dir, "run")

    def planned(self) -> int:
        return self.epochs * (self.frames - 1)

    def setup(self) -> None:
        run_cli("generate", overrides(
            run_seed=self.seed, run_out_root=self.data,
            dataset_motion="random-walk", dataset_n_frames=self.frames,
            dataset_n_points=self.points))

    def _config_args(self) -> list[str]:
        return overrides(run_seed=self.seed, run_out_root=self.run_dir,
                         dataset_kind="files", dataset_manifest=_manifest(self.data),
                         train_epochs=self.epochs)

    def job(self) -> Outcome:
        with call_times(nn.adam_step) as steps:
            t0 = time.perf_counter()
            run_cli("train", self._config_args())
            t1 = time.perf_counter()
        per_epoch = self._steps_per_epoch()
        if len(steps) != per_epoch * self.epochs:
            raise JobError(f"{len(steps)} optimizer steps, expected "
                           f"{per_epoch} full batches per epoch")
        k = np.arange(len(steps) + 1)  # slot k runs from step k to step k + 1
        inner = (k % per_epoch != 0) & (k < len(steps))
        alike = np.where(inner, np.where(k < per_epoch, 1, 2), 0)
        report = os.path.join(self.run_dir, "train_report.txt")
        ckpt = os.path.join(self.run_dir, "checkpoint.txt")
        processed = attempted = failed = 0
        first_val = None
        with open(report) as f:
            for line in f:
                tok = line.split()
                if tok[0] == "epoch" and len(tok) > 2:
                    # epoch <n> train <7 terms> val <7 terms, total last> <counts>
                    if first_val is None:
                        first_val = float(tok[17])
                    n = {k: int(v) for k, v in zip(tok[-8::2], tok[-7::2])}
                    processed += n["processed"]
                    failed += n["skipped"] + n["val_skipped"]
                    attempted += sum(n.values())
                elif tok[0] == "best_val_total":
                    best = float(tok[1])
        return Outcome(ops=processed, attempted=attempted, failed=failed,
                       failures=Counter(skipped_graph=failed),
                       digests={"checkpoint.txt": digest(ckpt),
                                "train_report.txt": digest(report)},
                       quality={"train.best_val_total": best},
                       detail={"checkpoint": ckpt, "first_val_total": first_val},
                       slots=np.diff([t0, *steps, t1]), alike=alike)

    def _steps_per_epoch(self) -> int:
        cfg = config.parse_config(None, self._config_args(), check_files=False).train
        pairs = len(train_mod.split_dataset(range(self.frames - 1), cfg.split,
                                            self.seed)[0])
        if pairs % cfg.batch_size:
            raise JobError(f"{pairs} training pairs do not fill batches of "
                           f"{cfg.batch_size}")
        return pairs // cfg.batch_size

    def check(self, outcomes) -> list[str]:
        problems = same_digests(outcomes)
        o = outcomes[-1]
        if o.attempted != self.planned():
            problems.append(f"train report covers {o.attempted} graphs, "
                            f"expected {self.planned()}")
        best = o.quality["train.best_val_total"]
        recomputed = self._checkpoint_val_total(o.detail["checkpoint"])
        if not math.isclose(best, recomputed, rel_tol=1e-9):
            problems.append(f"checkpoint validation loss {recomputed!r} does not "
                            f"match the reported best_val_total {best!r}")
        first = o.detail["first_val_total"]
        if not best <= self.max_val_ratio * first:
            problems.append(f"training cut the validation loss only from {first!r} "
                            f"to {best!r}, not below {self.max_val_ratio} of it")
        return problems

    def _checkpoint_val_total(self, ckpt) -> float:
        """Mean validation loss of the checkpointed parameters, recomputed
        from the checkpoint file and the dataset split."""
        cfg = config.parse_config(None, self._config_args())
        _, corrs = cli.load_dataset(cfg)
        _, val = train_mod.split_dataset(corrs, cfg.train.split, cfg.seed)
        params, model_cfg, meta = nn.load_checkpoint(ckpt)
        gp = train_mod.graph_params_from_meta(meta)
        weights = train_mod.weights_from_meta(meta)
        totals = []
        for corr in val:
            g = cli.build_graph(corr, params=gp)
            out, _ = nn.model_forward(nn.graph_tensors(g), params, model_cfg)
            target = losses.PoseTarget.from_pose(corr.gt_relative, cfg.loss.normalized_e)
            totals.append(losses.total_loss(out.q, out.t, target, weights).total)
        return float(np.mean(totals))


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _rotation_deg(q_pred, q_gt) -> float:
    """Geodesic angle from unit quaternions, independent of metrics.dre."""
    c = min(abs(float(np.dot(q_pred, q_gt))), 1.0)
    return math.degrees(2.0 * math.acos(c))


def _direction_deg(t_pred, t_gt) -> float:
    return math.degrees(math.atan2(np.linalg.norm(np.cross(t_pred, t_gt)),
                                   float(np.dot(t_pred, t_gt))))


class Eval:
    """What ``epigraph eval --set eval.baseline=eightpoint`` does, one pair
    at a time, so a pair that raises counts as failed instead of aborting:
    100 random-walk pairs of N=200 matches with 0.5 px noise and 30 %
    outliers, scored with a briefly trained 3GCN+GAT checkpoint.

    The slots are the loading, each pair and the reports.  The pairs that
    do not fail do like work: each builds its graph from all 200 matches
    and recovers the eight-point pose from them, and only the forward pass,
    a few per cent of a pair, depends on how many nodes the graph keeps."""

    name = "eval"
    ops_metric = "eval.pairs_per_s"
    quality_units = {"eval.model_dre_deg_median": "deg",
                     "eval.eightpoint_dre_deg_median": "deg",
                     "eval.eightpoint_dte_deg_median": "deg"}
    min_repeats = 3
    noise_px = 0.5
    outliers = 0.3
    # the eight-point DRE median must stay below this; seeds 0-19 give
    # 11-15 deg, a rotation chosen at random about 120 deg
    max_eightpoint_dre_deg = 30.0
    setup_spans = ("synth.generate_scene",)
    spans = ("synth.load_correspondences", "cli.load_manifest",
             "graph.build_graph", "graph.build_edges",
             "graph.sampson_filter", "epipolar.estimate_E0",
             "epipolar.solve_eight_point", "epipolar.recover_pose",
             "epipolar.cheirality_select", "epipolar.triangulate_dlt",
             "nn.model_forward", "nn.gcn_forward", "nn.gat_forward",
             "nn.graph_tensors", "nn.load_checkpoint", "metrics.build_record",
             "metrics.run_report")

    def __init__(self, out_dir, seed: int, frames: int = 101, points: int = 200,
                 ckpt_frames: int = 11, ckpt_epochs: int = 2):
        self.seed, self.frames, self.points = seed, frames, points
        self.ckpt_frames, self.ckpt_epochs = ckpt_frames, ckpt_epochs
        self.data = os.path.join(out_dir, "data")
        self.ckpt_data = os.path.join(out_dir, "ckpt_data")
        self.ckpt = os.path.join(out_dir, "checkpoint.txt")
        self.out_dir = os.path.join(out_dir, "run")

    def planned(self) -> int:
        return self.frames - 1

    def _generate(self, root, **fields) -> None:
        run_cli("generate", overrides(
            run_seed=self.seed, run_out_root=root, dataset_motion="random-walk",
            dataset_n_points=self.points, dataset_noise_px=self.noise_px,
            dataset_outlier_fraction=self.outliers, **fields))

    def setup(self) -> None:
        self._generate(self.data, dataset_n_frames=self.frames)
        # the checkpoint trains on its own short sequence, not on eval pairs
        self._generate(self.ckpt_data, dataset_n_frames=self.ckpt_frames,
                       dataset_sequence="ckpt")
        run_cli("train", overrides(
            run_seed=self.seed, run_out_root=self.ckpt_data, dataset_kind="files",
            dataset_manifest=_manifest(self.ckpt_data), model_preset="3GCN+GAT",
            train_epochs=self.ckpt_epochs), "--checkpoint", self.ckpt)

    def job(self) -> Outcome:
        stamps = [time.perf_counter()]
        cfg = config.parse_config(None, overrides(
            run_seed=self.seed, dataset_kind="files",
            dataset_manifest=_manifest(self.data), eval_baseline="eightpoint"))
        _, corrs = cli.load_dataset(cfg)
        params, model_cfg, meta = nn.load_checkpoint(self.ckpt)
        gp = train_mod.graph_params_from_meta(meta)

        usable, preds, base, failures, alike = [], [], [], Counter(), [0]
        for corr in corrs:
            stamps.append(time.perf_counter())
            alike.append(0)
            try:
                g = cli.build_graph(corr, params=gp)
                out, _ = nn.model_forward(nn.graph_tensors(g), params, model_cfg)
                base_pose = epipolar.recover_pose(corr.normalized_points())
            except EpigraphError as e:  # a failed pair is counted, not fatal
                failures[type(e).__name__] += 1
                continue
            alike[-1] = 1
            usable.append(corr)
            preds.append(Pose(out.q, out.t))
            base.append(base_pose)
        stamps.append(time.perf_counter())

        gts = [c.gt_relative for c in usable]
        ids = [c.pair_label() for c in usable]
        chain_idx = cli._chain_indices(usable)
        fps = cfg.dataset.fps
        summaries = {}
        for prefix, poses in (("model", preds), ("eightpoint", base)):
            rec = metrics.build_record(ids, poses, gts, chain_idx, fps=fps)
            metrics.run_report(rec, self.out_dir, prefix=prefix)
            synth.save_trajectory(metrics.chain([poses[i] for i in chain_idx], fps=fps),
                                  os.path.join(self.out_dir, f"{prefix}_traj.txt"))
            summaries[prefix] = rec.summary()
        synth.save_trajectory(metrics.chain([gts[i] for i in chain_idx], fps=fps),
                              os.path.join(self.out_dir, "gt_traj.txt"))
        stamps.append(time.perf_counter())

        failed = sum(failures.values())
        return Outcome(
            ops=len(corrs), attempted=len(corrs), failed=failed, failures=failures,
            slots=np.diff(stamps), alike=np.array(alike + [0]),
            digests={name: digest(os.path.join(self.out_dir, name))
                     for name in sorted(os.listdir(self.out_dir))},
            quality={"eval.model_dre_deg_median": summaries["model"]["dre_deg_median"],
                     "eval.eightpoint_dre_deg_median":
                         summaries["eightpoint"]["dre_deg_median"],
                     "eval.eightpoint_dte_deg_median":
                         summaries["eightpoint"]["dte_deg_median"]},
            detail={"summaries": summaries, "preds": preds, "base": base, "gts": gts})

    def check(self, outcomes) -> list[str]:
        problems = same_digests(outcomes)
        o = outcomes[-1]
        if o.attempted != self.planned():
            problems.append(f"{o.attempted} pairs loaded, expected {self.planned()}")
        gts = o.detail["gts"]
        for prefix, poses in (("model", o.detail["preds"]), ("eightpoint", o.detail["base"])):
            s = o.detail["summaries"][prefix]
            if s["n_pairs"] != o.attempted - o.failed:
                problems.append(f"{prefix} summary has {s['n_pairs']} pairs, "
                                f"expected {o.attempted - o.failed}")
            dre = np.median([_rotation_deg(p.q, g.q) for p, g in zip(poses, gts)])
            dte = np.median([_direction_deg(p.t, g.t) for p, g in zip(poses, gts)])
            for what, mine, theirs in (("dre", dre, s["dre_deg_median"]),
                                       ("dte", dte, s["dte_deg_median"])):
                if not abs(mine - theirs) < 1e-6:
                    problems.append(f"{prefix} {what}_deg_median {theirs!r} does not "
                                    f"match the recomputed {mine!r}")
        dre = o.quality["eval.eightpoint_dre_deg_median"]
        if not dre < self.max_eightpoint_dre_deg:
            problems.append(f"eight-point DRE median {dre!r} deg is not below "
                            f"{self.max_eightpoint_dre_deg} deg")
        return problems


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

class GradCheck:
    """``epigraph gradcheck`` over every preset on its 12-node graph, run
    one preset per call; the calls print what one call over all presets
    prints.

    A (preset, term) row outside tolerance is a failed operation.  The run
    stays correct only if that preset passes again with a finer
    finite-difference step: a wrong analytic gradient fails at any step,
    while a step of 1e-6 that straddles a ReLU kink (GIN_SumPool at seed 5)
    fails only at that step.

    A probe (one scalar parameter) is two forwards, at +h and -h, and the
    loss terms of each.  The slots of a preset are its analytic gradients,
    each probe but the last, from its +h forward to the next, and the last
    probe with the report.  The probes of a preset do like work.
    """

    name = "gradcheck"
    ops_metric = "gradcheck.probes_per_s"
    quality_units = {"gradcheck.max_rel_err": "ratio"}
    min_repeats = 1
    tolerance = 1e-5
    recheck_h = 1e-7
    setup_spans = ()
    spans = ("cli.cmd_gradcheck", "nn.model_forward", "nn.model_backward",
             "nn.gcn_forward", "nn.gcn_backward", "nn.gat_forward",
             "nn.gat_backward", "nn.gin_forward", "nn.gin_backward",
             "nn.graph_tensors", "losses.term_values", "losses.total_loss",
             "losses.total_loss_grad")

    def __init__(self, out_dir, seed: int):
        self.seed, self.presets = seed, nn.PRESET_NAMES
        self.probes = {}

    def planned(self) -> int:
        return len(self.presets) * len(losses.TERM_GRADS)

    def setup(self) -> None:
        self.probes = {p: sum(t.size for t in
                              nn.init_params(nn.preset_config(p)).tensors.values())
                       for p in self.presets}

    def job(self) -> Outcome:
        out, rc, slots, alike = io.StringIO(), 0, [], []
        for group, preset in enumerate(self.presets, start=1):
            with call_times(nn.model_forward) as stamps, contextlib.redirect_stdout(out):
                t0 = time.perf_counter()
                rc = max(rc, cli.cmd_gradcheck([preset], self.tolerance, None, self.seed))
                t1 = time.perf_counter()
            probes = self.probes[preset]
            if len(stamps) != 1 + 2 * probes:
                raise JobError(f"{preset}: {len(stamps)} model_forward calls, expected "
                               f"1 + 2 per probe for {probes} probes")
            slots += np.diff([t0, *stamps[1::2], t1]).tolist()
            alike += [0] + [group] * (probes - 1) + [0]
        text = out.getvalue()
        # one "<preset> <term> max_rel_err <value> ok|FAIL" line per (preset, term)
        rows = [line.split() for line in text.splitlines()
                if len(line.split()) == 5 and line.split()[2] == "max_rel_err"]
        failed = sum(r[4] != "ok" for r in rows)
        return Outcome(ops=sum(self.probes.values()), attempted=len(rows), failed=failed,
                       slots=np.array(slots), alike=np.array(alike),
                       failures=Counter(out_of_tolerance=failed),
                       digests={"stdout": hashlib.sha256(text.encode()).hexdigest()},
                       quality={"gradcheck.max_rel_err":
                                max((float(r[3]) for r in rows), default=math.nan)},
                       detail={"rc": rc,
                               "failing": sorted({r[0] for r in rows if r[4] != "ok"})})

    def check(self, outcomes) -> list[str]:
        problems = same_digests(outcomes)
        o = outcomes[-1]
        if o.attempted != self.planned():
            problems.append(f"{o.attempted} gradcheck rows, expected {self.planned()}")
        if o.detail["rc"] != (1 if o.failed else 0):
            problems.append(f"gradcheck exited {o.detail['rc']} with {o.failed} "
                            f"rows outside tolerance")
        for preset in o.detail["failing"]:
            if self._recheck(preset) != 0:
                problems.append(f"{preset}: analytic gradients disagree with central "
                                f"differences at h=1e-6 and at h={self.recheck_h}")
        return problems

    def _recheck(self, preset: str) -> int:
        """Exit code of ``epigraph gradcheck`` on one preset with the
        finite-difference step set to ``recheck_h``."""
        orig = nn.grad_check
        nn.grad_check = functools.partial(orig, h=self.recheck_h)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.cmd_gradcheck([preset], self.tolerance, None, self.seed)
        finally:
            nn.grad_check = orig


WORKLOADS = {w.name: w for w in (Train, Eval, GradCheck)}
