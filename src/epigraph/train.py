"""Mini-batch training loop with validation split and min-val checkpointing.

Graphs are built per sample inside the loop (cached by pair id and graph
parameters); batch gradients are the arithmetic mean over the graphs that
built successfully; one Adam step per batch.  Fixed seed implies
bit-identical parameters after every epoch.  ``load_model`` and
``predict`` are the forward-only path that eval, export and the k-NN
sweep share.
"""

from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from . import nn
from .config import decode, encode, format_setting, parse_setting
from .errors import EpigraphError, InvalidInputError, SchemaVersionError, ValidationError
from .graph import GraphParams, build_graph
from .losses import LossBreakdown, LossWeights, PoseTarget, total_loss, total_loss_grad
from .seeding import substream
from .synth import CorrespondenceSet, _fmt


@dataclass
class TrainConfig:
    model: nn.ModelConfig
    graph: GraphParams = field(default_factory=GraphParams)
    weights: LossWeights = field(default_factory=LossWeights)
    batch_size: int = 4
    lr: float = 1e-4
    epochs: int = 12
    split: float = 0.8
    seed: int = 0
    normalized_e: bool = False

    def __post_init__(self):
        if not (0.0 < self.split < 1.0):
            raise ValidationError("split fraction must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_mean: LossBreakdown
    val_mean: LossBreakdown
    processed: int
    skipped: int
    val_processed: int
    val_skipped: int


@dataclass
class TrainReport:
    epochs: list[EpochStats]
    best_epoch: int
    best_val_total: float
    checkpoint_path: str


def split_dataset(items, fraction: float, seed) -> tuple[list, list]:
    """Deterministic shuffled split; both halves nonempty."""
    n = len(items)
    if n < 2:
        raise ValidationError("need at least two items to split")
    perm = substream(seed, "split").permutation(n)
    n_train = int(round(fraction * n))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = sorted(perm[:n_train])
    val_idx = sorted(perm[n_train:])
    return [items[i] for i in train_idx], [items[i] for i in val_idx]


def _mean_breakdown(items: list[LossBreakdown]) -> LossBreakdown:
    if not items:
        return LossBreakdown(*([float("nan")] * len(fields(LossBreakdown))))
    arr = np.array([astuple(b) for b in items])
    return LossBreakdown(*(float(v) for v in arr.mean(axis=0)))


class GraphCache:
    """Dense tensors of built graphs, keyed by (pair id, content digest,
    graph params); the params in the key make stale entries impossible when
    k / tau / variant change, and the digest guards against colliding pair
    ids.  A pair whose graph failed keeps its error, raised on every get.
    A cache lives for one command call."""

    def __init__(self):
        self.store: dict = {}

    def build(self, corr: CorrespondenceSet, params: GraphParams):
        """Build the pair's graph, keep its tensors (or its error) for
        ``get`` and return the graph."""
        key = (corr.pair_label(), corr.cache_token(), params)
        try:
            g = build_graph(corr, params=params)
            self.store[key] = nn.graph_tensors(g)
        except EpigraphError as e:
            self.store[key] = e
            raise
        return g

    def get(self, corr: CorrespondenceSet, params: GraphParams):
        key = (corr.pair_label(), corr.cache_token(), params)
        if key not in self.store:
            try:
                self.build(corr, params)
            except EpigraphError:
                pass
        res = self.store[key]
        if isinstance(res, EpigraphError):
            raise res
        return res


def _targets_for(dataset, normalized_e: bool) -> list[PoseTarget]:
    targets = []
    for corr in dataset:
        if corr.gt_relative is None:
            raise ValidationError(
                f"pair {corr.pair_label()} has no ground-truth relative pose")
        targets.append(PoseTarget.from_pose(corr.gt_relative, normalized_e))
    return targets


def _ckpt_meta(cfg: TrainConfig, epoch: int, val_total: float) -> dict:
    return {"seed": cfg.seed, "epoch": epoch, "val_total": _fmt(val_total),
            **encode(cfg.weights),
            "normalized_e": format_setting("bool", cfg.normalized_e),
            **encode(cfg.graph, "graph.")}


# Graph settings that became fixed behaviour, with their fixed value; an older
# checkpoint whose meta holds another value was trained on graphs no longer built.
_RETIRED_GRAPH_META = {"graph.symmetrize": ("bool", True), "graph.knn_source": ("int", 1),
                       "graph.full_denominator": ("bool", False), "graph.e0_seed": ("int", 0)}


def graph_params_from_meta(meta: dict) -> GraphParams:
    for key, (tag, fixed) in _RETIRED_GRAPH_META.items():
        if key in meta and parse_setting(tag, meta[key], key) != fixed:
            raise InvalidInputError(f"{key} is no longer a setting; it must be "
                                    f"{format_setting(tag, fixed)}, got {meta[key]!r}")
    return decode(GraphParams, meta, "graph.")


def weights_from_meta(meta: dict) -> LossWeights:
    return decode(LossWeights, meta)


def train(cfg: TrainConfig, dataset, checkpoint_path,
          final_checkpoint_path=None, cache: GraphCache | None = None) -> TrainReport:
    """Train on a list of correspondence sets carrying ground truth.

    The checkpoint holds the minimum-validation epoch.  It is kept in
    memory and written once, when the epoch loop ends or an error escapes
    it after a best epoch exists; pass
    ``final_checkpoint_path`` to also keep the last-epoch state (useful
    for overfit sanity runs), and ``cache`` to reuse graphs the caller
    built."""
    train_set, val_set = split_dataset(list(dataset), cfg.split, cfg.seed)
    train_targets = _targets_for(train_set, cfg.normalized_e)
    val_targets = _targets_for(val_set, cfg.normalized_e)

    cache = cache or GraphCache()

    params = nn.init_params(cfg.model, substream(cfg.seed, "init"))
    stats: list[EpochStats] = []
    best = None
    best_state = None   # (params snapshot, meta) of the best epoch so far

    try:
        for epoch in range(1, cfg.epochs + 1):
            order = substream(cfg.seed, "shuffle", epoch).permutation(len(train_set))
            train_losses: list[LossBreakdown] = []
            skipped = 0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                acc = None
                n_ok = 0
                for i in batch:
                    try:
                        gtensors = cache.get(train_set[i], cfg.graph)
                    except EpigraphError:
                        skipped += 1
                        continue
                    out, fwd_cache = nn.model_forward(gtensors, params, cfg.model)
                    bd, dq, dt = total_loss_grad(out.q, out.t, train_targets[i],
                                                 cfg.weights)
                    grads = nn.model_backward(fwd_cache, dq, out.t_raw * dt,
                                              float(dt @ out.t_dir), params)
                    train_losses.append(bd)
                    n_ok += 1
                    if acc is None:
                        acc = grads
                    else:
                        for k in acc:
                            acc[k] += grads[k]
                if n_ok == 0:
                    continue
                for k in acc:
                    acc[k] /= n_ok
                nn.adam_step(params, acc, lr=cfg.lr)

            if not train_losses:
                raise ValidationError("every training graph failed to build this epoch")

            val_losses: list[LossBreakdown] = []
            val_skipped = 0
            for corr, target in zip(val_set, val_targets):
                try:
                    gtensors = cache.get(corr, cfg.graph)
                except EpigraphError:
                    val_skipped += 1
                    continue
                out, _ = nn.model_forward(gtensors, params, cfg.model)
                val_losses.append(total_loss(out.q, out.t, target, cfg.weights))

            val_mean = _mean_breakdown(val_losses)
            stats.append(EpochStats(epoch, _mean_breakdown(train_losses), val_mean,
                                    len(train_losses), skipped,
                                    len(val_losses), val_skipped))
            if val_losses and (best is None or val_mean.total < best):
                best = val_mean.total
                best_state = (params.copy(), _ckpt_meta(cfg, epoch, best))
    finally:
        # one write per run; an error after a best epoch still leaves it on disk
        if best_state is not None:
            nn.save_checkpoint(checkpoint_path, best_state[0], cfg.model, best_state[1])

    if best is None:
        raise ValidationError("no validation graph ever built; nothing checkpointed")
    if final_checkpoint_path is not None:
        nn.save_checkpoint(final_checkpoint_path, params, cfg.model,
                           _ckpt_meta(cfg, cfg.epochs, stats[-1].val_mean.total))
    best_epoch = min((s for s in stats if s.val_processed > 0),
                     key=lambda s: s.val_mean.total).epoch
    return TrainReport(stats, best_epoch, best, str(checkpoint_path))


@dataclass(frozen=True)
class LoadedModel:
    """A checkpoint's parameters with the settings its meta records."""

    params: nn.ModelParams
    config: nn.ModelConfig
    graph: GraphParams
    weights: LossWeights
    normalized_e: bool


def load_model(path) -> LoadedModel:
    """Load a checkpoint and parse its graph, loss-weight and normalized_e
    meta; missing or malformed meta raises SchemaVersionError."""
    params, config, meta = nn.load_checkpoint(path)
    try:
        return LoadedModel(params, config, graph_params_from_meta(meta),
                           weights_from_meta(meta),
                           parse_setting("bool", meta["normalized_e"], "normalized_e"))
    except (KeyError, ValueError, InvalidInputError) as e:
        raise SchemaVersionError(f"checkpoint meta is missing or malformed: {e}") from None


def predict(model: LoadedModel, dataset, cache: GraphCache | None = None) -> list:
    """Forward pass over each pair: its ModelOutput, or the EpigraphError
    its graph or forward raised, in dataset order.  Which failures to
    tolerate is the caller's choice.  Graphs come from ``cache``; without
    one, each pair's graph is dropped after its forward pass."""
    results = []
    for corr in dataset:
        try:
            gtensors = (cache or GraphCache()).get(corr, model.graph)
            out, _ = nn.model_forward(gtensors, model.params, model.config)
        except EpigraphError as e:
            out = e
        results.append(out)
    return results


REPORT_HEADER = "# epigraph-train-report v1"


def _report_values(mean: LossBreakdown, n: int) -> str:
    # v1 keeps the deleted spectral term's column between frob and yaw:
    # benchmarks/workloads.py reads the val total by position, as token 17.
    # It holds the 0.0 it always held, or nan like its neighbours when no
    # graph was built.
    vals = astuple(mean)
    return " ".join(_fmt(v) for v in (*vals[:4], 0.0 if n else math.nan, *vals[4:]))


def write_report(report: TrainReport, path) -> None:
    lines = [REPORT_HEADER, f"epochs {len(report.epochs)}"]
    for s in report.epochs:
        tr = _report_values(s.train_mean, s.processed)
        vl = _report_values(s.val_mean, s.val_processed)
        lines.append(f"epoch {s.epoch} train {tr} val {vl} "
                     f"processed {s.processed} skipped {s.skipped} "
                     f"val_processed {s.val_processed} val_skipped {s.val_skipped}")
    lines.append(f"best_epoch {report.best_epoch}")
    lines.append(f"best_val_total {_fmt(report.best_val_total)}")
    lines.append(f"checkpoint {os.path.basename(report.checkpoint_path)}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
