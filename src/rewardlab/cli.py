"""Command line: `python -m rewardlab <command>`, or the `rewardlab` script.
`rewardlab -h` lists the commands: the pipeline's three steps (datagen ->
train -> eval) and two checks (ablate, grad-check).

Every setting is an ExperimentConfig key in the `key = value` file given
by --config (defaults without one); --seed overrides its seed. `ablate`
sweeps that seed and the next two and prints separation AUCs only, no
planning rates (`eval` prints those); `grad-check` takes no config. A
RewardLabError or OSError exits with status 1 and a one-line message, and
so does a gradient suite in which an operation's worst error reaches its
bound, after the report.
"""

import argparse
import json
import sys

from . import datagen as dg, dynamics as dyn, evaluation as ev, formats, training
from .config import ExperimentConfig, load_config, resolve_seed
from .errors import RewardLabError
from .gradcheck import MAX_RELATIVE_ERROR, run_gradient_suite


def _config(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    return resolve_seed(config, args.seed)


def _datagen(args):
    config = _config(args)
    dataset = dg.gen_dataset(config)
    report = {
        "clips": len(dataset),
        "attempts": sum(r["attempts"] for r in dataset.retries.values()),
        "zero_noise_clips": sum(r["zero_noise_clips"] for r in dataset.retries.values()),
        "domain_shift_cosine": dg.domain_shift_cosine(config),
    }
    formats.save_dataset(dataset, args.out)
    print(json.dumps(report))


def _train(args):
    result = training.train(_config(args), formats.load_dataset(args.data))
    formats.save_checkpoint(training.params_to_arrays(result.params), args.out)
    for record in result.metrics:
        print(json.dumps(record))


def _eval(args):
    config = _config(args)
    params = training.params_from_arrays(formats.load_checkpoint(args.checkpoint))
    separation = ev.evaluate_separation(params, ev.eval_dataset_for(config), config.all_tasks)
    planning = ev.evaluate_planning(params, dyn.ground_truth_model(), config, refine=True)
    print(json.dumps({
        "env_variant": config.env_variant,
        "auc": {task: entry["auc"] for task, entry in separation.items()},
        "planning": planning["rows"],
    }))


def _grad_check(args) -> int:
    worst = run_gradient_suite()
    print(json.dumps(worst))
    over = [name for name, err in worst.items() if not err < MAX_RELATIVE_ERROR]
    if over:
        print(f"rewardlab grad-check: error: the worst relative error of {', '.join(over)}"
              f" reaches {MAX_RELATIVE_ERROR:g}", file=sys.stderr)
    return 1 if over else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rewardlab", description=__doc__.split("\n\n")[1])
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, paths=(), config=True):
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(run=run)
        if config:
            sub.add_argument("--config", metavar="PATH")
            sub.add_argument("--seed", type=int, metavar="N")
        for path in paths:
            sub.add_argument(f"--{path}", required=True, metavar="PATH")

    command("datagen", "write the training set, print a JSON report", _datagen, ("out",))
    command("train", "fit on a dataset file, write a checkpoint, print each epoch", _train,
            ("data", "out"))
    command("eval", "print the environment variant, its separation AUC per task and "
            "VMPC/CEM planning rates", _eval,
            ("checkpoint",))
    command("ablate", "print the train and held-out AUC of each seed's mode x K x "
            "failure-source cell as CSV",
            lambda args: print(ev.ablation_csv(ev.run_ablation(_config(args))), end=""))
    command("grad-check", "print the finite-difference gradient suite's worst errors; "
            f"fail if one reaches {MAX_RELATIVE_ERROR:g}", _grad_check, config=False)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        status = args.run(args)
    except (RewardLabError, OSError) as exc:
        print(f"rewardlab {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return status or 0
