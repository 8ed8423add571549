"""The traced layer boundaries of rewardlab and the per-layer metrics
derived from their spans.

Each target is wrapped at the name its callers look it up by:
`simworld.step_batch` is read as a module attribute both by `datagen`
(`sw.step_batch`) and by `simworld.rollout_states`/`rollout_batch`
themselves; `losses.logsumexp`/`losses.softmax` are the names `losses`
imported from `embeddings`; `LearnedReward.score_batch` is patched on the
class. The benchmark calls `training.train`, `evaluation.evaluate_*` and
the dataset builders through their modules, so those spans are seen too.
"""

import numpy as np

from rewardlab import (
    clustering, datagen, dynamics, encoders, evaluation, losses, planner, render, simworld,
    training,
)
from tracer import is_wrapper

# datagen drops action noise to zero from attempt index 24 on
ZERO_NOISE_ATTEMPTS = 25


def _leading_rows(states, *args, **kwargs):
    return int(np.shape(states)[0]) if np.ndim(states) == 2 else 1


def _score_rows(reward, states):
    return int(np.shape(states)[0])


def _success_tag(task_id, *args, **kwargs):
    return (int(task_id), "success")


def _failure_tag(task_id, archetype, *args, **kwargs):
    return (int(task_id), str(archetype))


# (owner, attribute, rows, tag)
TARGETS = (
    (simworld, "step_batch", _leading_rows, None),
    (simworld, "rollout_batch", None, None),
    (simworld, "rollout_states", None, None),
    (simworld, "initial_state_array", None, None),
    (datagen, "run_policy", None, None),
    (datagen, "gen_success_trajectory", None, _success_tag),
    (datagen, "gen_failure_trajectory", None, _failure_tag),
    (render, "render_frames", _leading_rows, None),
    (encoders, "encode_clips_cached", None, None),
    (encoders, "encode_clips_backward", None, None),
    (encoders, "failure_text_features", None, None),
    (encoders, "compose_failure_context_backward", None, None),
    (losses, "total_loss", None, None),
    (losses, "cross_domain_loss", None, None),
    (losses, "video_text_loss", None, None),
    (losses, "failure_prompt_loss", None, None),
    (losses, "bce_loss", None, None),
    (losses, "logsumexp", None, None),
    (losses, "softmax", None, None),
    (training, "train", None, None),
    (training, "sample_batch", None, None),
    (clustering, "spherical_kmeans", None, None),
    (clustering, "_update_centers", None, None),
    (dynamics, "chunked_predict_batch", None, None),
    (dynamics, "train_dynamics", None, None),
    (planner, "vmpc_plan", None, None),
    (planner, "cem_refine", None, None),
    (planner.LearnedReward, "score_batch", _score_rows, None),
    (evaluation, "evaluate_planning", None, None),
    (evaluation, "evaluate_separation", None, None),
)

GEN_SPANS = ("datagen.gen_success_trajectory", "datagen.gen_failure_trajectory")
PLANNER_SPANS = ("planner.vmpc_plan", "planner.cem_refine")
# measured on the set-up phase instead of the timed rounds
SETUP_METRICS = ("dynamics.train_dynamics.total_s",)


def span_name(owner, attribute) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__qualname__}.{attribute}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"


def install(tracer) -> None:
    for owner, attribute, rows, tag in TARGETS:
        tracer.wrap(owner, attribute, span_name(owner, attribute), rows=rows, tag=tag)


def installed_wrappers() -> list:
    """Names of targets that currently hold a tracer wrapper."""
    return [
        span_name(owner, attribute)
        for owner, attribute, _, _ in TARGETS
        if is_wrapper(vars(owner)[attribute])
    ]


def attempts_per_clip_span(table) -> dict:
    """{gen_* span index: initial-state draws (attempts) made inside it}."""
    out = {}
    for name in GEN_SPANS:
        out.update(table.children_per_span(name, "simworld.initial_state_array"))
    return out


def retry_report(table) -> dict:
    """Attempts per (task, style), and clips that reached the zero-noise fallback."""
    report = {}
    for idx, attempts in sorted(attempts_per_clip_span(table).items()):
        task, style = table.tags[idx]
        row = report.setdefault(f"{task}/{style}", {"clips": 0, "attempts": 0, "zero_noise_clips": 0})
        row["clips"] += 1
        row["attempts"] += attempts
        row["zero_noise_clips"] += int(attempts >= ZERO_NOISE_ATTEMPTS)
    return report


def _per_call(num, calls) -> float:
    return num / calls if calls else 0.0


def round_metrics(table, metric_names) -> dict:
    """Per-layer values of one timed round, for every name it can give."""
    attempts = attempts_per_clip_span(table)
    special = {
        "datagen.attempts": sum(attempts.values()),
        "datagen.attempts_per_clip": _per_call(sum(attempts.values()), len(attempts)),
        "datagen.zero_noise_clips": sum(a >= ZERO_NOISE_ATTEMPTS for a in attempts.values()),
        "clustering.spherical_kmeans.iterations": table.calls("clustering._update_centers"),
    }
    out = {}
    for metric in metric_names:
        span, _, kind = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif kind == "calls":
            out[metric] = table.calls(span)
        elif kind == "self_s":
            out[metric] = table.self_total(span)
        elif kind == "total_s" and metric not in SETUP_METRICS:
            out[metric] = table.total(span)
        elif kind == "rows_per_call":
            out[metric] = _per_call(table.row_total(span), table.calls(span))
    return out


def setup_metrics(table) -> dict:
    return {metric: table.total(metric.rpartition(".")[0]) for metric in SETUP_METRICS}


def planner_metrics(durations_by_span) -> dict:
    """p50 and p90 of each planner call with its sample count.

    p90 is the highest percentile the benchmark reports: with the >= 100
    plans a traced plan run makes, at least ten samples lie beyond it.
    """
    out = {}
    for span in PLANNER_SPANS:
        d = np.asarray(durations_by_span.get(span, []), dtype=np.float64)
        out[f"{span}.total_s.p50"] = float(np.percentile(d, 50)) if d.size else 0.0
        out[f"{span}.total_s.p90"] = float(np.percentile(d, 90)) if d.size else 0.0
        out[f"{span}.count"] = int(d.size)
    return out
