"""Synthetic clip datasets: human/robot domains with a fixed shift and
three scripted failure archetypes.

`gen_dataset` reads every setting from an `ExperimentConfig`, which has
already checked them. Robot clips come straight from the simulator's
feature renderer. Human clips are the same kind of task motion rendered
through `render`'s fixed affine domain transform with a per-clip random
viewpoint offset and Gaussian feature noise, so the embodiment gap is a
measurable shift.

Failure archetypes:
  wander     - random motion that never touches the task object
  revert     - achieves the predicate mid-episode, then undoes it
  incomplete - makes contact but the predicate never holds

Every clip has its own seed and its own Generator. An attempt draws the
initial state from it, then the attempt's uniform action noise in
[-level, +level] as one (H, 2) block (wander clips draw their random
actions instead). The clip's label is checked against the simulator's
predicate; a failed check retries the clip, halving the noise level every
NOISE_HALVING attempts and dropping it to zero from ZERO_NOISE_ATTEMPT on,
where the scripted controller is correct by construction. A human clip's
camera offset and feature noise come from the same Generator after its
successful attempt.

Clips are rolled in lockstep: the scripted controllers act on (n, 7) state
arrays with per-clip phase arrays, and `roll_groups` advances the clips of
several (task, style) groups together through `simworld.step_batch`.
Attempt 0 is rolled alone, one row per clip. After it, every remaining
attempt of one noise band (`BANDS`: attempts 1-7, 8-15, 16-23, then the
zero-noise band 24-31) is rolled in one batch, one row per (pending clip,
attempt): each clip makes its draws for every attempt of the band in the
order above, and its Generator state is saved after each attempt. Every
group of the batch steps in the same loop, one `step_batch` call per step:
each group's controller acts on its own rows with its own phase arrays and
adds its own noise, and wander rows replay their drawn actions. One
predicate call per group checks its rows. A clip keeps its first passing
row, counts the attempts up to it, and gets its Generator back in the
state saved after that attempt, so its later draws follow exactly as if it
had stopped there. The dynamics and controllers are elementwise, so a
clip's rollout does not depend on which other rows share the batch:
`roll_clips` is the same core for one group, and `gen_success_trajectory`
and `gen_failure_trajectory` are `roll_clips` at n = 1.

`gen_dataset` packs whole groups, in dataset order, into batches of at
most `BATCH_CLIPS` clips (a larger group is a batch alone), rolls one batch
at a time and renders it, one `render_clips` call per group and domain,
before it rolls the next, so it never holds more than one batch of rolled
states.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import render, simworld as sw
from .errors import ArchetypeUnsupportedError, BadConfigError, GenerationFailedError

ARCHETYPES = ("wander", "revert", "incomplete")
FAILURE_SOURCES = ("random", "near_success")
ACTION_NOISE = 0.03
NOISE_HALVING = 8                      # attempts per action-noise level
ZERO_NOISE_ATTEMPT = 3 * NOISE_HALVING  # attempts from this index on add no action noise
MAX_ATTEMPTS = ZERO_NOISE_ATTEMPT + NOISE_HALVING
_CLIP_STREAMS = {"human": 11, "robot_success": 12, "robot_failure": 13}
# clips per lockstep batch of a dataset call: bounds the rolled states held
# before they are rendered, while filling each step_batch call
BATCH_CLIPS = 128

# archetypes that cannot exist for a task: the faucet's displacement only
# accumulates (nothing to revert), and any first touch of the cup already
# satisfies the poke predicate (nothing can be incomplete)
UNSUPPORTED = {
    (sw.TASK_FAUCET, "revert"),
    (sw.TASK_POKE_CUP, "incomplete"),
}


@dataclass(frozen=True)
class LabeledClip:
    frames: np.ndarray            # (L, F)
    domain: str                   # "human" | "robot"
    task_id: int
    success: int                  # r in {0, 1}
    failure_archetype: str | None  # present iff success == 0
    seed: int

    def __post_init__(self):
        if (self.failure_archetype is None) != (self.success == 1):
            raise BadConfigError("archetype must be present exactly when r = 0")


@dataclass
class Dataset:
    clips: list
    # (task_id, style) -> {"clips", "attempts", "zero_noise_clips"}: how many
    # rollouts generation needed, and how many clips only passed their label
    # check once the action noise had dropped to zero
    retries: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.clips)

    def frames_array(self) -> np.ndarray:
        return np.stack([c.frames for c in self.clips])


def _clip_seed(master: int, stream: int, task_id: int, index: int) -> int:
    return int(np.random.SeedSequence([master, stream, task_id, index]).generate_state(1, np.uint64)[0])


# --- scripted controllers ---

@dataclass
class Phase:
    """Per-clip controller memory, one row per clip of a lockstep group."""

    mark: np.ndarray   # (n,) bool: latched once the controller's trigger event happened
    n: np.ndarray      # (n,) int: leg counter (drawer revert, cup carry) or shoves (poke)
    cup0: np.ndarray   # (n, 2): the cup position at the start of the rollout

    @classmethod
    def start(cls, s0: np.ndarray) -> "Phase":
        n = s0.shape[0]
        return cls(np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64),
                   s0[:, (sw.CUPX, sw.CUPY)].copy())


_SLACK = 0.035    # gripper-to-target distance that counts as at the target
_RETREAT = 0.09   # a retreating gripper moves until it is this far away


def _clamp(v):
    """np.clip to the velocity limit, without np.clip's per-call overhead."""
    return np.minimum(np.maximum(v, -sw.VEL_LIMIT), sw.VEL_LIMIT)


def _approach(states, tx, ty):
    return _clamp(tx - states[:, sw.GX]), _clamp(ty - states[:, sw.GY])


def _dist2(states, tx, ty):
    """Squared gripper distance to a target point."""
    return (states[:, sw.GX] - tx) ** 2 + (states[:, sw.GY] - ty) ** 2


def _away(states, cup_x):
    """Retreat velocity along x, away from the side the cup is on."""
    return np.where(cup_x >= states[:, sw.GX], -0.05, 0.05)


def _act(cases, default):
    """(n, 3) actions: per row, the first case whose mask holds, else default.

    Each case is (mask, vx, vy, grip); values are scalars or (n,) arrays.
    """
    vx, vy, grip = default
    for mask, cvx, cvy, cgrip in reversed(cases):
        vx, vy, grip = np.where(mask, cvx, vx), np.where(mask, cvy, vy), np.where(mask, cgrip, grip)
    out = np.empty((cases[0][0].shape[0], sw.ACTION_DIM))
    out[:, 0], out[:, 1], out[:, 2] = vx, vy, grip
    return out


def _drawer(states, phase, style, closing):
    ext = states[:, sw.EXT]
    hx, hy = sw.DRAWER_BASE[0], sw.DRAWER_BASE[1] + ext
    d2 = _dist2(states, hx, hy)
    do_sign = -1.0 if closing else 1.0
    if style == "success":
        phase.mark |= (ext <= 0.02) if closing else (ext >= 0.045)
        push = do_sign * 0.05
    elif style == "revert":
        phase.n[(phase.n == 0) & ((ext <= 0.015) if closing else (ext >= 0.045))] = 1
        phase.mark |= (phase.n == 1) & ((ext >= 0.06) if closing else (ext <= 0.005))
        push = np.where(phase.n == 0, do_sign, -do_sign) * 0.05
    else:  # incomplete: a fractional nudge, so a single step cannot cross the threshold
        phase.mark |= (ext <= 0.058) if closing else (ext >= 0.012)
        push = _clamp((0.056 if closing else 0.014) - ext)
    # once marked: retreat off the handle, then idle
    return _act([
        (phase.mark & (d2 <= _RETREAT**2), 0.05, 0.0, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
        (d2 <= _SLACK**2, 0.0, push, 0.0),
    ], (*_approach(states, hx, hy), 0.0))


def _faucet(states, phase, style):
    hx, hy = sw.FAUCET_HANDLE
    d2 = _dist2(states, hx, hy)
    touching = d2 <= _SLACK**2
    # incomplete: touch, then back straight off without tangential motion
    phase.mark |= (states[:, sw.ANGLE] >= 0.08) if style == "success" else touching
    return _act([
        (phase.mark & (d2 <= _RETREAT**2), 0.0, -0.05, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
        (touching, 0.05, 0.0, 0.0),
    ], (*_approach(states, hx, hy), 0.0))


def _poke(states, phase, style):
    cx, cy = states[:, sw.CUPX], states[:, sw.CUPY]
    vx, vy = _approach(states, cx, cy)
    d2 = _dist2(states, cx, cy)
    if style == "success":
        phase.mark |= d2 <= (sw.CONTACT_RADIUS - 0.0005) ** 2
        shove = np.zeros_like(phase.mark)
    else:  # revert: gentle touch first, then shove the cup hard for three steps
        phase.mark |= d2 <= (sw.CONTACT_RADIUS - 0.008) ** 2
        shove = phase.mark & (phase.n < 3)
        phase.n += shove
    return _act([
        (shove, np.where(vx >= 0, 0.05, -0.05), vy, 0.0),
        (phase.mark & (d2 <= _RETREAT**2), _away(states, cx), 0.0, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
    ], (vx, vy, 0.0))


def _cup_carry(states, phase, axis, direction, goal, revert_goal=None, grab=True,
               speed=0.05, release_grip=-1.0):
    """Carry or push the cup along one axis by a target displacement.

    Legs: phase.n 0 moves the cup until it is `goal` along, 1 (revert only)
    moves it back to `revert_goal`, 2 releases and retreats.
    """
    cx, cy = states[:, sw.CUPX], states[:, sw.CUPY]
    delta = (states[:, sw.CUPX + axis] - phase.cup0[:, axis]) * direction
    d2 = _dist2(states, cx, cy)
    touching = d2 <= (sw.CONTACT_RADIUS - 0.005) ** 2
    # pushing needs the gripper on the trailing side of the cup
    stand = [cx, cy]
    if not grab:
        stand[axis] = stand[axis] - direction * 0.03
    hold = 1.0 if grab else 0.0
    phase.n[(phase.n == 0) & (delta >= goal)] = 1 if revert_goal is not None else 2
    if revert_goal is not None:
        phase.n[(phase.n == 1) & (delta <= revert_goal)] = 2
    push, pull = [0.0, 0.0], [0.0, 0.0]
    push[axis], pull[axis] = direction * speed, -direction * 0.05
    return _act([
        ((phase.n == 0) & ~touching, *_approach(states, *stand), hold),
        (phase.n == 0, *push, hold),
        (phase.n == 1, *pull, 1.0),
        (d2 <= _RETREAT**2, _away(states, cx), 0.0, release_grip),
    ], (0.0, 0.0, 0.0))


def make_policy(task_id: int, style: str):
    """Closed-loop lockstep controller: policy(states (n, 7), phase) -> (n, 3)
    actions (vx, vy, grip). It updates the per-clip `Phase` arrays in place.

    style is "success" or a failure archetype other than "wander".
    """
    if task_id in (sw.TASK_CLOSE_DRAWER, sw.TASK_OPEN_DRAWER):
        return partial(_drawer, style=style, closing=task_id == sw.TASK_CLOSE_DRAWER)
    if task_id == sw.TASK_FAUCET:
        return partial(_faucet, style=style)
    if task_id == sw.TASK_POKE_CUP:
        return partial(_poke, style=style)
    revert_goal = None
    if task_id == sw.TASK_CUP_AWAY:
        if style == "revert":
            revert_goal = 0.01
        goal = {"success": 0.18, "revert": 0.14, "incomplete": 0.03}[style]
        return partial(_cup_carry, axis=1, direction=1.0, goal=goal, revert_goal=revert_goal)
    direction = 1.0 if task_id == sw.TASK_CUP_LEFT_TO_RIGHT else -1.0
    if style == "incomplete":
        # one gentle nudge well under the threshold
        return partial(_cup_carry, axis=0, direction=direction, goal=0.015, grab=False,
                       speed=0.02, release_grip=0.0)
    if style == "revert":
        revert_goal = 0.0
    return partial(_cup_carry, axis=0, direction=direction,
                   goal={"success": 0.08, "revert": 0.07}[style],
                   revert_goal=revert_goal, grab=style == "revert")


def run_policy(s0, policy, noise=None, horizon=sw.HORIZON):
    """Roll (n, 7) start states in lockstep, one `step_batch` call per step
    for every row.

    policy is one controller for every row, with noise (n, horizon, 2)
    velocity noise added before clamping, or None. Or it is a list of
    blocks (rows, controller, noise) that split the rows in order: each
    block's controller acts on its own rows with its own `Phase` and adds
    its own noise, and a block whose controller is None replays its noise
    (rows, horizon, 3) as its actions, unclamped (wander clips).
    Returns actions (n, horizon, 3) and states (n, horizon + 1, 7).
    """
    cur = np.asarray(s0, dtype=np.float64)
    if callable(policy):
        policy = [(cur.shape[0], policy, noise)]
    actions = np.empty((cur.shape[0], horizon, sw.ACTION_DIM))
    states = np.empty((cur.shape[0], horizon + 1, sw.STATE_DIM))
    states[:, 0] = cur
    controlled, replayed, start = [], [], 0
    for size, controller, block_noise in policy:
        rows = slice(start, start + size)
        start += size
        if controller is None:
            replayed.append((rows, block_noise))
        else:
            controlled.append((rows, controller, block_noise, Phase.start(cur[rows])))
    for t in range(horizon):
        act = actions[:, t]
        for rows, controller, block_noise, phase in controlled:
            block = controller(cur[rows], phase)
            if block_noise is not None:
                block[:, :2] += block_noise[:, t]
            act[rows] = block
        act[:, :2] = _clamp(act[:, :2])
        for rows, replay in replayed:
            act[rows] = replay[:, t]
        cur = sw.step_batch(cur, act)
        states[:, t + 1] = cur
    return actions, states


def _wander_actions(task_id, s0_arr, rng, horizon=sw.HORIZON):
    """Random motion biased away from the object for the first few steps."""
    actions = sw.random_action_array(rng, 1, horizon)[0]
    away = s0_arr[[sw.GX, sw.GY]] - sw.target_points(task_id, s0_arr)
    norm = np.linalg.norm(away)
    if norm > 1e-9:
        away = away / norm * sw.VEL_LIMIT
        actions[:8, 0] = np.clip(away[0] + actions[:8, 0] * 0.3, -sw.VEL_LIMIT, sw.VEL_LIMIT)
        actions[:8, 1] = np.clip(away[1] + actions[:8, 1] * 0.3, -sw.VEL_LIMIT, sw.VEL_LIMIT)
    return actions


def _labels_ok(task_id, style, states) -> np.ndarray:
    """(n,) flags: does each rollout of (n, T+1, 7) states realize its label?"""
    flags = sw.prefix_success_flags(task_id, states)
    if style == "success":
        return flags[:, -1]
    contact = np.any(sw.target_contact_mask(task_id, states), axis=-1)
    if style == "wander":
        ok = ~contact
    elif style == "revert":
        ok = np.any(flags[:, :-1], axis=-1)
    else:
        ok = contact & ~np.any(flags, axis=-1)
    return ok & ~flags[:, -1]


def noise_level(noise: float, attempt: int) -> float:
    """Action-noise level of an attempt: halved every NOISE_HALVING
    attempts, zero from ZERO_NOISE_ATTEMPT on."""
    return 0.0 if attempt >= ZERO_NOISE_ATTEMPT else noise * 0.5 ** (attempt // NOISE_HALVING)


# the attempts rolled as one batch: attempt 0 alone, then the rest of each
# noise level (1-7, 8-15, 16-23 and the zero-noise 24-31)
BANDS = (range(1),) + tuple(range(max(a, 1), a + NOISE_HALVING)
                            for a in range(0, MAX_ATTEMPTS, NOISE_HALVING))


class _GroupRoll:
    """Rolling state of one (task, style) group: its clips' Generators, the
    rollouts kept so far, the attempts taken and the clips still pending."""

    def __init__(self, task_id: int, style: str, seeds):
        self.task_id, self.style, self.seeds = task_id, style, seeds
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        n = len(self.rngs)
        self.actions = np.empty((n, sw.HORIZON, sw.ACTION_DIM))
        self.states = np.empty((n, sw.HORIZON + 1, sw.STATE_DIM))
        self.attempts = np.zeros(n, dtype=np.int64)
        self.policy = None if style == "wander" else make_policy(task_id, style)
        self.pending = np.arange(n)

    def draw(self, band, level):
        """Per pending clip, its draws for each attempt of the band, in
        order: the start states, the `run_policy` block of these rows, and
        each row's Generator state after its attempt."""
        s0, draws, saved = [], [], []
        for i in self.pending:
            rng = self.rngs[i]
            for _ in band:
                s = sw.initial_state_array(self.task_id, rng)
                s0.append(s)
                if self.policy is None:
                    draws.append(_wander_actions(self.task_id, s, rng))
                elif level > 0:
                    draws.append(rng.uniform(-level, level, size=(sw.HORIZON, 2)))
                saved.append(rng.bit_generator.state)
        return s0, (len(s0), self.policy, np.stack(draws) if draws else None), saved

    def settle(self, band, acts, rolled, saved):
        """Keep each pending clip's first passing row of the band."""
        pending = self.pending
        ok = _labels_ok(self.task_id, self.style, rolled).reshape(pending.size, len(band))
        passed = ok.any(axis=1)
        # row of each clip's first passing attempt (its last one if none passed)
        first = np.where(passed, ok.argmax(axis=1), len(band) - 1)
        rows = np.arange(pending.size) * len(band) + first
        self.attempts[pending] += first + 1
        done, keep = pending[passed], rows[passed]
        self.actions[done], self.states[done] = acts[keep], rolled[keep]
        for i, row in zip(done, keep):
            self.rngs[i].bit_generator.state = saved[row]
        self.pending = pending[~passed]


def roll_groups(groups, noise: float = ACTION_NOISE):
    """Label-checked rollouts of (task, style, seeds) groups, one clip per
    seed, all groups in one lockstep loop per noise band.

    Each band of `BANDS` is one `run_policy` batch over every pending clip
    of every group and every attempt of the band. A clip keeps its first
    passing attempt, and its Generator is set back to the state saved right
    after that attempt.

    seeds: anything `np.random.default_rng` takes; a Generator is used (and
    advanced) in place. Returns, per group, actions (n, H, 3), states
    (n, H + 1, 7), the attempts each clip took (n,), and the clips'
    Generators, whose next draws follow the successful attempt.
    """
    for task_id, style, _ in groups:
        if style != "success" and style not in ARCHETYPES:
            raise ArchetypeUnsupportedError(f"unknown archetype {style!r}")
        if (task_id, style) in UNSUPPORTED:
            raise ArchetypeUnsupportedError(f"{style} cannot occur for task {task_id}")
    rolls = [_GroupRoll(task_id, style, seeds) for task_id, style, seeds in groups]
    for band in BANDS:
        live = [roll for roll in rolls if roll.pending.size]
        if not live:
            break
        level = noise_level(noise, band[0])
        drawn = [roll.draw(band, level) for roll in live]
        acts, rolled = run_policy(np.stack([s for s0, _, _ in drawn for s in s0]),
                                  [block for _, block, _ in drawn])
        start = 0
        for roll, (s0, _, saved) in zip(live, drawn):
            rows = slice(start, start + len(s0))
            start = rows.stop
            roll.settle(band, acts[rows], rolled[rows], saved)
    for roll in rolls:
        if roll.pending.size:
            raise GenerationFailedError(
                f"could not realize {roll.style} for task {roll.task_id} in {MAX_ATTEMPTS} "
                f"attempts (clip seed {roll.seeds[roll.pending[0]]!r})"
            )
    return [(roll.actions, roll.states, roll.attempts, roll.rngs) for roll in rolls]


def roll_clips(task_id: int, style: str, seeds, noise: float = ACTION_NOISE):
    """`roll_groups` of one (task, style) group: returns its actions (n, H, 3),
    states (n, H + 1, 7), attempts (n,) and Generators."""
    return roll_groups([(task_id, style, seeds)], noise)[0]


def gen_failure_trajectory(task_id: int, archetype: str, seed, noise: float = ACTION_NOISE):
    """Robot failure rollout realizing one archetype; label checked, seeded."""
    if archetype not in ARCHETYPES:
        raise ArchetypeUnsupportedError(f"unknown archetype {archetype!r}")
    actions, states, _, _ = roll_clips(task_id, archetype, [seed], noise)
    return actions[0], states[0]


def gen_success_trajectory(task_id: int, seed, noise: float = ACTION_NOISE):
    """Scripted success rollout with uniform action noise; label checked."""
    actions, states, _, _ = roll_clips(task_id, "success", [seed], noise)
    return actions[0], states[0]


def _human_clips(states: np.ndarray, rngs, config) -> np.ndarray:
    """Human-domain clips of (n, T+1, 7) rollouts in one render call; each
    clip draws its camera offset, then its feature noise, from its own rng."""
    sigma = render.VIEWPOINT_SIGMA
    cameras = np.reshape([rng.uniform(-sigma, sigma, 2) for rng in rngs], (-1, 2))
    clips = render.render_clips(states, config.clip_frames, cameras, "human")
    if config.noise > 0:
        noise = [rng.normal(0.0, config.noise, clips.shape[1:]) for rng in rngs]
        clips = clips + np.reshape(noise, clips.shape)
    return clips


def _failure_archetype_plan(task_id: int, count: int, sources) -> list:
    """Deterministic per-index archetype assignment honoring the sources."""
    near = [a for a in ("revert", "incomplete") if (task_id, a) not in UNSUPPORTED]
    plan = []
    for i in range(count):
        if sources == ("random",):
            plan.append("wander")
        elif sources == ("near_success",):
            plan.append(near[i % len(near)])
        else:
            plan.append("wander" if i % 2 == 0 else near[(i // 2) % len(near)])
    return plan


def gen_dataset(config, variant: str = "train") -> Dataset:
    """Deterministic synthetic dataset of an `ExperimentConfig`: human clips
    of config.all_tasks, robot clips of config.train_tasks. Robot clips are
    rendered in the environment `variant` (a `render.VARIANTS` name); human
    clips stand for videos from outside the robot's environment and take
    none, so they do not depend on it.

    Clips come in a fixed order (every human clip, then per robot task its
    successes and failures); each (task, style) is one lockstep group, human
    and robot successes of a task together. Whole groups are rolled in
    batches of at most BATCH_CLIPS clips, each rendered before the next.
    """
    # (domain, task, style, seed) per clip, in dataset order
    specs = []
    for task_id in config.all_tasks:
        for i in range(config.human_per_task):
            specs.append(("human", task_id, "success",
                          _clip_seed(config.seed, _CLIP_STREAMS["human"], task_id, i)))
    for task_id in config.train_tasks:
        for i in range(config.robot_success_per_task):
            specs.append(("robot", task_id, "success",
                          _clip_seed(config.seed, _CLIP_STREAMS["robot_success"], task_id, i)))
        plan = _failure_archetype_plan(task_id, config.robot_failure_per_task,
                                       tuple(config.failure_sources))
        for i, archetype in enumerate(plan):
            specs.append(("robot", task_id, archetype,
                          _clip_seed(config.seed, _CLIP_STREAMS["robot_failure"], task_id, i)))

    groups = {}
    for idx, (_, task_id, style, _) in enumerate(specs):
        groups.setdefault((task_id, style), []).append(idx)
    frames = np.empty((len(specs), config.clip_frames, render.FRAME_WIDTH))
    retries = {}
    for batch in _batches([(*key, members) for key, members in groups.items()]):
        _roll_and_render(batch, specs, config, variant, frames, retries)

    clips = []
    for clip_frames, (domain, task_id, style, seed) in zip(frames, specs):
        archetype = None if style == "success" else style
        clips.append(LabeledClip(clip_frames, domain, task_id, int(archetype is None), archetype, seed))
    return Dataset(clips, retries)


def _batches(groups):
    """(task, style, clips) groups packed in order into lockstep batches of
    at most BATCH_CLIPS clips; a larger group is a batch alone."""
    batch, size = [], 0
    for group in groups:
        if batch and size + len(group[2]) > BATCH_CLIPS:
            yield batch
            batch, size = [], 0
        batch.append(group)
        size += len(group[2])
    if batch:
        yield batch


def _roll_and_render(groups, specs, config, variant, frames, retries):
    """Roll (task, style, members) groups of `specs` rows in one lockstep
    batch; write their frames and retry counts. The batch's states go when
    this returns, before the next batch is rolled."""
    rolls = roll_groups([(task_id, style, [specs[i][3] for i in members])
                         for task_id, style, members in groups], noise=ACTION_NOISE)
    for (task_id, style, members), (_, states, attempts, rngs) in zip(groups, rolls):
        # a success group lists its human clips first; no render call is empty
        n_human = sum(specs[i][0] == "human" for i in members)
        if n_human:
            frames[members[:n_human]] = _human_clips(states[:n_human], rngs[:n_human], config)
        if n_human < len(members):
            frames[members[n_human:]] = render.render_clips(
                states[n_human:], config.clip_frames, variant=variant)
        retries[(task_id, style)] = {
            "clips": len(members),
            "attempts": int(attempts.sum()),
            "zero_noise_clips": int(np.sum(attempts > ZERO_NOISE_ATTEMPT)),
        }


def domain_shift_cosine(config, n_pairs: int = 100) -> float:
    """Mean frame cosine between robot clips and their human counterparts,
    over the tasks of an `ExperimentConfig` (config.all_tasks).

    Pair i is one success rollout of its task, seeded [seed, 99, task, i],
    rendered in both domains (the human rendering draws from the clip's
    Generator after its rollout). Each task's pairs are one lockstep group,
    the groups are rolled in `gen_dataset`'s batches, and each group is
    rendered in one call per domain. The mean runs over the pairs in index
    order.
    """
    tasks = config.all_tasks
    if not tasks:
        raise BadConfigError("domain_shift_cosine needs at least one task")
    if n_pairs <= 0:
        raise BadConfigError(f"domain_shift_cosine needs n_pairs > 0, got {n_pairs}")
    per_task = [t for t in tasks for _ in range((n_pairs // len(tasks)) + 1)]
    pairs = per_task[:n_pairs]
    groups = {}
    for i, task_id in enumerate(pairs):
        groups.setdefault(task_id, []).append(i)
    sims = np.empty((len(pairs), config.clip_frames))
    for batch in _batches([(task_id, "success", idx) for task_id, idx in groups.items()]):
        rolls = roll_groups([(task_id, style, [[config.seed, 99, task_id, i] for i in idx])
                             for task_id, style, idx in batch], noise=ACTION_NOISE)
        for (_, _, idx), (_, states, _, rngs) in zip(batch, rolls):
            robot = render.render_clips(states, config.clip_frames)
            human = _human_clips(states, rngs, config)
            num = np.sum(robot * human, axis=2)
            sims[idx] = num / (np.linalg.norm(robot, axis=2) * np.linalg.norm(human, axis=2))
    return float(np.mean(sims.ravel()))
