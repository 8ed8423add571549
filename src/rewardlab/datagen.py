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

Every clip has its own seed and its own Generator: the integer seed is
`embeddings.stream_seed(master seed, stream, task, index)`, the first
uint64 word of that SeedSequence, and the Generator is
`default_rng(seed)`. An attempt draws from the Generator the
simworld.START_DRAWS `Generator.random` draws of its initial state, then
the 2H of its uniform action noise in [-level, +level], an (H, 2) block
in row order; a zero-noise attempt draws its start alone, and a wander
clip draws its random actions after its start instead of noise.
Since `uniform(a, b)` is a + (b - a) * random(), mapping the draws
afterwards gives the values that drawing each range with `uniform` would
give, bit for bit, and leaves the Generator in the same state. The
clip's label is checked against the simulator's predicate; a failed check
retries the clip, halving the noise level every NOISE_HALVING attempts
and dropping it to zero from ZERO_NOISE_ATTEMPT on, where the scripted
controller is correct by construction. The first level is ACTION_NOISE,
the only action-noise setting: every rollout reads it when called, so one
patched module value reaches them all. A human clip's camera offset and
feature noise come from the same Generator after its successful attempt.

Clips are rolled in lockstep: `roll_groups` advances the clips of several
(task, style) groups together, one `simworld.step_batch` call per step.
The attempts are cut into three bands (`BANDS`): attempts 0-1, every
other noisy retry (2-23, at the full, halved and quartered levels) and
the zero-noise fallback (24-31). Each band is one batch, one row per
(pending clip, attempt), so a dataset call makes one lockstep loop per
band that some clip reaches; a band's size does not change the data.
Each clip makes the draws of every attempt of the band in turn, saving
its Generator state after each but the last; then one
`simworld.initial_states` call per group builds the band's starts, and
one affine map its noise, each row at its own attempt's level. A
scripted controller is a kind (drawer, faucet, poke, cup carry) plus a
row of constants, so a step makes one controller call per kind, over the
rows of all its groups, with per-row phase arrays, constants and noise;
wander rows replay their drawn actions. The loop is state-major: it
keeps the time-major (H + 1, 7, n) states, so a controller reads each
state column as one contiguous row.
One predicate call per group checks its rows. A clip keeps its first
passing row, counts the attempts up to it, and gets its Generator back as
saved after that attempt (after the last, it already holds that state),
so its later draws follow exactly as if it had stopped there. The
dynamics and controllers are elementwise, so a clip's rollout does not
depend on which other rows share the batch: `gen_success_trajectory` and
`gen_failure_trajectory` are `roll_groups` of one group of one clip.

`gen_dataset` and `domain_shift_cosine` roll whole groups, in order, in
batches of at most `BATCH_CLIPS` clips, and render each batch, one
`render_clips` call per group and domain, before the next is rolled.
`LabeledClip` is the one check of a clip's labels, for generated and
loaded clips alike.
"""

from dataclasses import dataclass, field

import numpy as np

from . import render, simworld as sw
from .embeddings import stream_seed
from .errors import (
    ArchetypeUnsupportedError, BadConfigError, GenerationFailedError, NonFiniteValueError,
    ShapeMismatchError, UnknownTaskError,
)

ARCHETYPES = ("wander", "revert", "incomplete")
FAILURE_SOURCES = ("random", "near_success")
ACTION_NOISE = 0.03
NOISE_HALVING = 8                      # attempts per action-noise level
ZERO_NOISE_ATTEMPT = 3 * NOISE_HALVING  # attempts from this index on add no action noise
MAX_ATTEMPTS = ZERO_NOISE_ATTEMPT + NOISE_HALVING
_CLIP_STREAMS = {"human": 11, "robot_success": 12, "robot_failure": 13}
_DOMAIN_PAIR_STREAM = 99  # rng stream tag of domain_shift_cosine's pairs
# clips per lockstep batch of a dataset call: bounds the rolled states held
# before they are rendered, while filling each step_batch call. A band rolls
# up to 22 rows per pending clip (attempts 2-23), so a 128-clip batch could
# reach 2,816 rows.
BATCH_CLIPS = 128
DOMAIN_PAIRS = 100  # robot/human clip pairs that domain_shift_cosine averages over

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
        archetype = self.failure_archetype
        if self.domain not in ("human", "robot"):
            raise BadConfigError(f"unknown domain {self.domain!r}")
        if self.task_id not in sw.TASK_NAMES:
            raise BadConfigError(f"unknown task {self.task_id}")
        if self.success not in (0, 1):
            raise BadConfigError(f"success must be 0 or 1, got {self.success}")
        if self.success == 1 and archetype is not None:
            raise BadConfigError(f"a success has failure archetype {archetype!r}")
        if self.success == 0 and archetype not in ARCHETYPES:
            raise BadConfigError(f"unknown failure archetype {archetype!r}")


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


# --- scripted controllers ---

@dataclass
class Phase:
    """Per-clip controller memory, one row per clip of a lockstep group."""

    mark: np.ndarray   # (n,) bool: latched once the controller's trigger event happened
    n: np.ndarray      # (n,) int: leg counter (drawer revert, cup carry) or shoves (poke)
    cup0: np.ndarray   # (2, n): the cup position at the start of the rollout

    @classmethod
    def start(cls, s0: np.ndarray) -> "Phase":
        """Fresh memory for state-major (7, n) start states."""
        n = s0.shape[1]
        return cls(np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64),
                   s0[sw.CUPX:sw.CUPY + 1].copy())


# squared gripper distances (at the target, retreated, touching the cup to carry it) and
# other constants as 0-d arrays: a Python float operand costs numpy a conversion per call
_SLACK2, _RETREAT2, _GRASP2 = (np.array(r**2) for r in (0.035, 0.09, sw.CONTACT_RADIUS - 0.005))
_FAUCET, _DRAWER, _UP = (np.array(xy)[:, None] for xy in (sw.FAUCET_HANDLE, sw.DRAWER_BASE, (0.0, 1.0)))


def _clamp(v, out=None):
    """v limited to the velocity box."""
    return sw.clamp(v, *sw.VEL_BOX, out=out)


def _toward(s, target):
    """(2, n) offsets from the grippers of (7, n) states to target, (2, n)
    or (2, 1), and their squared lengths."""
    d = target - s[sw.GX:sw.GY + 1]
    dd = d * d
    return d, dd[0] + dd[1]


def _act(cases, default):
    """(n, 3) actions: per row, the first case whose mask holds, else default.

    Each case is (mask, vx, vy, grip); values are scalars or (n,) arrays.
    """
    vx, vy, grip = out = np.empty((sw.ACTION_DIM, cases[0][0].shape[0]))
    vx[:], vy[:], grip[:] = default
    for mask, cvx, cvy, cgrip in reversed(cases):
        np.copyto(vx, cvx, where=mask)
        np.copyto(vy, cvy, where=mask)
        np.copyto(grip, cgrip, where=mask)
    return out.T


def _drawer(s, phase, p):
    ext = s[sw.EXT]
    d, d2 = _toward(s, _DRAWER + ext * _UP)  # the handle moves with ext
    along = p["sign"] * ext  # negation is exact: closing's ext <= thr is along >= -thr
    reached = along >= p["reach"]
    # a revert turns back once reached, and is marked once back past `back`
    np.copyto(phase.n, 1, where=p["revert"] & reached)
    phase.mark |= np.where(p["revert"], (phase.n == 1) & (along <= p["back"]), reached)
    # incomplete: a fractional nudge, so a single step cannot cross the threshold
    push = np.where(p["nudge"], _clamp(p["target"] - ext), np.where(phase.n == 0, p["fwd"], p["rev"]))
    # once marked: retreat off the handle, then idle
    return _act([
        (phase.mark & (d2 <= _RETREAT2), 0.05, 0.0, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
        (d2 <= _SLACK2, 0.0, push, 0.0),
    ], (*_clamp(d, out=d), 0.0))


def _faucet(s, phase, p):
    # a success is marked once the faucet turned; else touch, then back straight off
    d, d2 = _toward(s, _FAUCET)
    touching = d2 <= _SLACK2
    phase.mark |= np.where(p["turns"], s[sw.ANGLE] >= 0.08, touching)
    return _act([
        (phase.mark & (d2 <= _RETREAT2), 0.0, -0.05, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
        (touching, 0.05, 0.0, 0.0),
    ], (*_clamp(d, out=d), 0.0))


def _poke(s, phase, p):
    d, d2 = _toward(s, s[sw.CUPX:sw.CUPY + 1])
    vx, vy = _clamp(d, out=d)
    phase.mark |= d2 <= p["reach"]
    shove = phase.mark & (phase.n < p["shoves"])
    phase.n += shove
    return _act([
        (shove, np.where(vx >= 0, 0.05, -0.05), vy, 0.0),
        # retreat along x, away from the side the cup is on
        (phase.mark & (d2 <= _RETREAT2), np.where(vx >= 0, -0.05, 0.05), 0.0, 0.0),
        (phase.mark, 0.0, 0.0, 0.0),
    ], (vx, vy, 0.0))


def _cup_carry(s, phase, p):
    """Carry or push the cup along one axis by a target displacement.

    Legs: phase.n 0 moves the cup until it is `goal` along, 1 (revert only)
    moves it back to `back`, 2 releases and retreats.
    """
    cup = s[sw.CUPX:sw.CUPY + 1]
    delta = (cup - phase.cup0)[p["axis"], np.arange(cup.shape[1])] * p["direction"]
    d, d2 = _toward(s, cup)
    np.copyto(phase.n, p["leg"], where=(phase.n == 0) & (delta >= p["goal"]))
    np.copyto(phase.n, 2, where=(phase.n == 1) & (delta <= p["back"]))
    stand = (cup - p["off"]) - s[sw.GX:sw.GY + 1]  # a pushed cup's stand-off
    carry = phase.n == 0
    return _act([
        (carry & (d2 > _GRASP2), *_clamp(stand, out=stand), p["hold"]),
        (carry, *p["push"], p["hold"]),
        (phase.n == 1, *p["pull"], 1.0),
        (d2 <= _RETREAT2, np.where(d[0] >= 0, -0.05, 0.05), 0.0, p["release"]),  # away from the cup
    ], (0.0, 0.0, 0.0))


def make_policy(task_id: int, style: str):
    """A (task, style) group's scripted controller as (kind, params): kind is
    `_drawer`, `_faucet`, `_poke` or `_cup_carry`, and params, the group's row
    of the kind's parameter table, maps each constant's name to its value.
    kind(s (7, n), phase, table) -> (n, 3) actions (vx, vy, grip) acts on
    the state-major rows of any groups of the kind, table holding each
    constant per row, and updates their `Phase` in place. A style with no
    controller ("wander", an unknown one, or one in UNSUPPORTED) raises
    ArchetypeUnsupportedError."""
    if task_id not in sw.TASK_NAMES:
        raise UnknownTaskError(f"no task with id {task_id}")
    if style not in ("success", "revert", "incomplete") or (task_id, style) in UNSUPPORTED:
        raise ArchetypeUnsupportedError(f"no scripted {style!r} controller for task {task_id}")
    revert = style == "revert"
    if task_id in (sw.TASK_CLOSE_DRAWER, sw.TASK_OPEN_DRAWER):
        closing = task_id == sw.TASK_CLOSE_DRAWER
        sign = -1.0 if closing else 1.0
        # (opening, closing) extensions at which a row is marked, or a revert turns back
        reach = {"success": (0.045, 0.02), "revert": (0.045, 0.015), "incomplete": (0.012, 0.058)}
        return _drawer, dict(
            sign=sign, reach=sign * reach[style][closing], back=sign * (0.005, 0.06)[closing],
            revert=revert, nudge=style == "incomplete", fwd=sign * 0.05, rev=-sign * 0.05,
            target=(0.014, 0.056)[closing])
    if task_id == sw.TASK_FAUCET:
        return _faucet, dict(turns=style == "success")
    if task_id == sw.TASK_POKE_CUP:
        # a revert touches gently first, then shoves the cup hard for three steps
        return _poke, dict(reach=(sw.CONTACT_RADIUS - (0.008 if revert else 0.0005)) ** 2,
                           shoves=3 * revert)
    away = task_id == sw.TASK_CUP_AWAY
    # displacement to reach, a revert's return goal, grab (else push), speed, release grip
    goal, back, grab, speed, release = {
        (True, "success"): (0.18, -np.inf, True, 0.05, -1.0),
        (True, "revert"): (0.14, 0.01, True, 0.05, -1.0),
        (True, "incomplete"): (0.03, -np.inf, True, 0.05, -1.0),
        (False, "success"): (0.08, -np.inf, False, 0.05, -1.0),
        (False, "revert"): (0.07, 0.0, True, 0.05, -1.0),
        (False, "incomplete"): (0.015, -np.inf, False, 0.02, 0.0),  # a nudge well under the goal
    }[away, style]
    axis, direction = (1, 1.0) if away else (0, 1.0 if task_id == sw.TASK_CUP_LEFT_TO_RIGHT else -1.0)
    # along the axis: the stand-off behind a pushed cup, the push and the pull
    off, push, pull = vectors = np.zeros((3, 2))
    vectors[:, axis] = 0.0 if grab else direction * 0.03, direction * speed, -direction * 0.05
    return _cup_carry, dict(axis=axis, direction=direction, goal=goal, back=back, leg=1 if revert else 2,
                            off=off, hold=float(grab), push=push, pull=pull, release=release)


def run_policy(s0, blocks):
    """Roll (n, 7) start states in lockstep for HORIZON steps, one
    `step_batch` call per step for every row.

    blocks is a list of (rows, policy, noise) that split the rows in order:
    a `make_policy` controller adds its noise (rows, H, 2), or None, to the
    velocities before clamping, and a block whose policy is None replays its
    noise (rows, H, 3) as its actions, unclamped (wander clips). Each step
    makes one call per controller kind over the rows of all its blocks (those
    without noise in a call of their own), with one `Phase` and a parameter
    table that repeats each block's constants over its rows. Returns actions
    (n, H, 3) and states (n, H + 1, 7). Blocks that do not split the rows, or
    a noise block of another shape, raise ShapeMismatchError.

    The loop is state-major: it keeps the time-major (H + 1, 7, n) states and
    (H, 3, n) actions, so a controller reads contiguous state rows (s[sw.EXT])
    and `step_batch` gets transposed views of contiguous (7, n) and (3, n)
    arrays, which it takes without a copy; each step it returns is copied
    into the next state rows. The results are transposed views of those
    buffers, not copies.
    """
    s0 = np.asarray(s0, dtype=np.float64)
    n = s0.shape[0]
    sizes = [size for size, _, _ in blocks]
    if min(sizes, default=0) < 0 or sum(sizes) != n:
        raise ShapeMismatchError(f"block sizes {sizes} do not split {n} rows")
    actions = np.empty((sw.HORIZON, sw.ACTION_DIM, n))
    path = np.empty((sw.HORIZON + 1, sw.STATE_DIM, n))
    path[0] = s0.T
    kinds, replayed, start = {}, [], 0
    for i, (size, policy, block_noise) in enumerate(blocks):
        controls = policy is not None  # a controller's noise may be None
        want = (size, sw.HORIZON, 2 if controls else sw.ACTION_DIM)
        if np.shape(block_noise) != want and not (controls and block_noise is None):
            raise ShapeMismatchError(f"block {i} needs {want} noise, got {np.shape(block_noise)}")
        if controls:
            member = (np.arange(start, start + size), policy[1], block_noise)
            kinds.setdefault((policy[0], block_noise is None), []).append(member)
        else:  # replayed time-major, (H, 3, rows)
            replayed.append((slice(start, start + size), np.transpose(block_noise, (1, 2, 0))))
        start += size
    controlled = []
    for (kind, quiet), members in kinds.items():
        index, params, noise = zip(*members)
        rows = np.concatenate(index)
        if rows.size and rows[-1] - rows[0] == rows.size - 1:
            rows = slice(rows[0], rows[-1] + 1)
        lengths = [len(i) for i in index]
        table = {name: np.repeat(np.transpose([p[name] for p in params]), lengths, axis=-1)
                 for name in params[0]}
        noise = None if quiet else np.concatenate([n.transpose(1, 2, 0) for n in noise], axis=-1)
        controlled.append((rows, kind, table, noise, Phase.start(path[0][:, rows])))
    for t in range(sw.HORIZON):
        cur, act = path[t], actions[t]
        for rows, kind, table, noise, phase in controlled:
            block = kind(cur[:, rows], phase, table).T  # (3, rows), contiguous
            if noise is not None:
                block[:2] += noise[t]  # noise is time-major, (H, 2, rows)
            act[:, rows] = block
        _clamp(act[:2], out=act[:2])
        for rows, replay in replayed:
            act[:, rows] = replay[t]
        path[t + 1] = sw.step_batch(cur.T, act.T).T
    return actions.transpose(2, 0, 1), path.transpose(2, 0, 1)


def _steer_away(task_id, s0, actions):
    """Bias wander clips' (n, H, 3) random actions away from the task object
    of their (n, 7) starts for the first few steps, in place; returns them."""
    away = s0[:, [sw.GX, sw.GY]] - sw.target_points(task_id, s0)
    # a row's (1, 2) @ (2, 1) product is the dot that np.linalg.norm takes
    # of a vector, so the norms are its bits
    norm = np.sqrt((away[:, None] @ away[:, :, None])[:, 0, 0])
    far = norm > 1e-9
    away = away[far] / norm[far, None] * sw.VEL_LIMIT
    actions[far, :8, :2] = _clamp(away[:, None] + actions[far, :8, :2] * 0.3)
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


def noise_level(attempt: int) -> float:
    """Action-noise level of an attempt: ACTION_NOISE, read when called,
    halved every NOISE_HALVING attempts, zero from ZERO_NOISE_ATTEMPT on."""
    return 0.0 if attempt >= ZERO_NOISE_ATTEMPT else ACTION_NOISE * 0.5 ** (attempt // NOISE_HALVING)


# the attempts rolled as one batch, each band all noisy or all zero-noise:
# attempts 0-1 (most clips pass by their second), every other noisy retry
# (2-23, at the full, halved and quartered levels) and the zero-noise
# fallback (24-31)
BANDS = (range(2), range(2, ZERO_NOISE_ATTEMPT), range(ZERO_NOISE_ATTEMPT, MAX_ATTEMPTS))


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

    def draw(self, band):
        """Per pending clip, its draws for each attempt of the band, in
        order: the start states (rows, 7), the `run_policy` block of these
        rows, and {row: Generator state after its attempt} for every row
        but a clip's last of the band, whose state its Generator keeps.

        Each attempt's level is `noise_level(attempt)`, ACTION_NOISE read
        when called; a band's levels are all nonzero or all zero. An attempt
        draws its START_DRAWS start draws, then its noise (2H draws, at a
        nonzero level) or, for a wander clip, its `random_action_array`,
        writing each into its row of a band-wide array, and ends with one
        state read. After the loop one `initial_states` call builds every
        start, and one affine map low + (high - low) * r, in place, with
        each row's own level, turns the noise draws into what
        uniform(low, high) gives for them."""
        wander = self.policy is None
        levels = np.array([noise_level(attempt) for attempt in band])
        noisy = not wander and levels.any()
        rows = self.pending.size * len(band)
        starts = np.empty((rows, sw.START_DRAWS))
        noise = np.empty((rows, sw.HORIZON, 2)) if noisy else None
        replay = np.empty((rows, sw.HORIZON, sw.ACTION_DIM)) if wander else None
        saved, row = {}, 0
        for i in self.pending:
            rng = self.rngs[i]
            for attempt in band:
                rng.random(out=starts[row])
                if wander:
                    replay[row] = sw.random_action_array(rng, 1, sw.HORIZON)[0]
                elif noisy:
                    rng.random(out=noise[row])
                if attempt != band[-1]:
                    saved[row] = rng.bit_generator.state
                row += 1
        s0 = sw.initial_states(self.task_id, starts)
        if wander:
            noise = _steer_away(self.task_id, s0, replay)
        elif noisy:
            high = np.tile(levels, self.pending.size)[:, None, None]  # (rows, 1, 1)
            low = -high
            noise *= high - low
            noise += low
        return s0, (rows, self.policy, noise), saved

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
            if row in saved:  # else the clip passed at its last attempt
                self.rngs[i].bit_generator.state = saved[row]
        self.pending = pending[~passed]


def roll_groups(groups):
    """Label-checked rollouts of (task, style, seeds) groups, one clip per
    seed, all groups in one lockstep loop per band, each attempt at its
    `noise_level` of the ACTION_NOISE read when called.

    Each band of `BANDS` is one `run_policy` batch over every pending clip
    of every group and every attempt of the band; a band that no clip
    reaches is not rolled. A clip keeps its first
    passing attempt, and its Generator is set back to the state saved right
    after that attempt (a clip that passes at its band's last attempt
    already holds it).

    seeds: anything `np.random.default_rng` takes, one clip's Generator
    each; a Generator is used (and advanced) in place. Returns, per group,
    actions (n, H, 3), states (n, H + 1, 7), the attempts each clip took
    (n,), and the clips' Generators, whose next draws follow the successful
    attempt.
    """
    rolls = [_GroupRoll(*group) for group in groups]
    for band in BANDS:
        live = [roll for roll in rolls if roll.pending.size]
        if not live:
            break
        drawn = [roll.draw(band) for roll in live]
        acts, rolled = run_policy(np.concatenate([s0 for s0, _, _ in drawn]),
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


def gen_failure_trajectory(task_id: int, archetype: str, seed):
    """Robot failure rollout realizing one archetype; label checked, seeded."""
    if archetype not in ARCHETYPES:
        raise ArchetypeUnsupportedError(f"unknown archetype {archetype!r}")
    actions, states, _, _ = roll_groups([(task_id, archetype, [seed])])[0]
    return actions[0], states[0]


def gen_success_trajectory(task_id: int, seed):
    """Scripted success rollout with uniform action noise; label checked."""
    actions, states, _, _ = roll_groups([(task_id, "success", [seed])])[0]
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
    """Deterministic per-index archetype assignment honoring the sources: one
    cycle of "wander", the task's near-success archetypes, or both interleaved."""
    near = [a for a in ("revert", "incomplete") if (task_id, a) not in UNSUPPORTED]
    if sources == ("random",):
        cycle = ["wander"]
    elif sources == ("near_success",):
        cycle = near
    else:
        cycle = [a for archetype in near for a in ("wander", archetype)]
    return [cycle[i % len(cycle)] for i in range(count)]


def _rolled_groups(keys, seeds):
    """Roll clip i of (task, style) group keys[i] from
    `default_rng(seeds[i])`; whole groups in order packed into lockstep
    batches of at most BATCH_CLIPS clips (a larger group is a batch alone).
    Yields each group's key, members (clip indices), states (n, H + 1, 7),
    attempts (n,) and Generators, one batch at a time, so a batch's states
    and Generators can go before the next is rolled."""
    groups, batches = {}, []
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    for key, members in groups.items():
        if not batches or sum(len(m) for _, m in batches[-1]) + len(members) > BATCH_CLIPS:
            batches.append([])
        batches[-1].append((key, members))
    for batch in batches:
        rolls = roll_groups([(*key, [seeds[i] for i in members]) for key, members in batch])
        for key, members in batch:
            # popped and yielded unnamed, so a group's rollouts go once its
            # caller is done with them
            yield (key, members, *rolls.pop(0)[1:])


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
    A NaN or infinite frame (a huge config.noise overflows the human clips)
    raises NonFiniteValueError naming the first clip that holds one.

    Clip i of a stream ("human", "robot_success", "robot_failure") and task
    has the integer seed `embeddings.stream_seed(config.seed, stream, task,
    i)`, the first uint64 word of that SeedSequence, and the Generator
    `np.random.default_rng(seed)`.
    """
    # (domain, task, style) and (stream, task, index) per clip, in dataset order
    specs, entropy = [], []
    for task_id in config.all_tasks:
        for i in range(config.human_per_task):
            specs.append(("human", task_id, "success"))
            entropy.append((_CLIP_STREAMS["human"], task_id, i))
    for task_id in config.train_tasks:
        for i in range(config.robot_success_per_task):
            specs.append(("robot", task_id, "success"))
            entropy.append((_CLIP_STREAMS["robot_success"], task_id, i))
        plan = _failure_archetype_plan(task_id, config.robot_failure_per_task,
                                       tuple(config.failure_sources))
        for i, archetype in enumerate(plan):
            specs.append(("robot", task_id, archetype))
            entropy.append((_CLIP_STREAMS["robot_failure"], task_id, i))
    seeds = [stream_seed(config.seed, *e) for e in entropy]

    frames = np.empty((len(specs), config.clip_frames, render.FRAME_WIDTH))
    retries = {}
    for key, members, states, attempts, rngs in _rolled_groups([spec[1:] for spec in specs], seeds):
        # a success group lists its human clips first; no render call is empty
        n_human = sum(specs[i][0] == "human" for i in members)
        if n_human:
            frames[members[:n_human]] = _human_clips(states[:n_human], rngs[:n_human], config)
        if n_human < len(members):
            frames[members[n_human:]] = render.render_clips(
                states[n_human:], config.clip_frames, variant=variant)
        retries[key] = {
            "clips": len(members),
            "attempts": int(attempts.sum()),
            "zero_noise_clips": int(np.sum(attempts > ZERO_NOISE_ATTEMPT)),
        }
        del states, rngs  # not held while the next batch is rolled
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=(1, 2)))
    if bad.size:
        domain, task_id, style = specs[bad[0]]
        raise NonFiniteValueError(f"clip {bad[0]} ({domain} {style}, task {task_id}, "
                                  f"seed {seeds[bad[0]]}) has non-finite frames")

    clips = []
    for clip_frames, (domain, task_id, style), seed in zip(frames, specs, seeds):
        archetype = None if style == "success" else style
        clips.append(LabeledClip(clip_frames, domain, task_id, int(archetype is None), archetype, seed))
    return Dataset(clips, retries)


def domain_shift_cosine(config) -> float:
    """Mean frame cosine between robot clips and their human counterparts,
    over the DOMAIN_PAIRS pairs of the tasks of an `ExperimentConfig`
    (config.all_tasks). A frame norm that is not finite (a huge config.noise
    overflows it) or a NaN mean raises NonFiniteValueError.

    Pair i is one success rollout of its task from the Generator
    `default_rng([seed, 99, task, i])`, rendered in both domains (the human
    rendering draws from the clip's Generator after its rollout). Each
    task's pairs are one lockstep group, the groups are rolled in
    `gen_dataset`'s batches, and each group is rendered in one call per
    domain. The mean runs over the pairs in index order.
    """
    tasks = config.all_tasks
    if not tasks:
        raise BadConfigError("domain_shift_cosine needs at least one task")
    pairs = [t for t in tasks for _ in range((DOMAIN_PAIRS // len(tasks)) + 1)][:DOMAIN_PAIRS]
    seeds = [[config.seed, _DOMAIN_PAIR_STREAM, task_id, i] for i, task_id in enumerate(pairs)]
    sims = np.empty((len(pairs), config.clip_frames))
    for _, idx, states, _, rngs in _rolled_groups([(t, "success") for t in pairs], seeds):
        robot = render.render_clips(states, config.clip_frames)
        human = _human_clips(states, rngs, config)
        with np.errstate(over="ignore"):  # an overflowing norm raises below
            norms = np.linalg.norm(robot, axis=2) * np.linalg.norm(human, axis=2)
        finite = np.isfinite(norms).all(axis=1)
        if not finite.all():
            raise NonFiniteValueError(f"domain shift cosine is nan: pair {idx[finite.argmin()]} "
                                      f"has a frame norm that is not finite")
        sims[idx] = np.sum(robot * human, axis=2) / norms
    mean = float(np.mean(sims.ravel()))
    if not np.isfinite(mean):
        raise NonFiniteValueError(f"domain shift cosine is {mean!r}")
    return mean
