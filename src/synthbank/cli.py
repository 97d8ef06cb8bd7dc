"""Command-line entry point.

Batch commands over one JSON config document:

    synthbank gen-data --config run.json      generate/prepare the microdata
    synthbank encode   --config run.json      discretize into codes
    synthbank synth    --config run.json      run the private synthesizer
    synthbank decode   --config run.json      map codes back to values
    synthbank eval     --config run.json      score utility, write reports
    synthbank pipeline --config run.json      all of the above
    synthbank compare  --config run.json      both strategies, paired report

Stage commands expect the previous stages' artifacts in the output
directory. Flags override the corresponding config fields.
"""

from __future__ import annotations

import argparse
import json
import sys

from .apps import APPS
from .mechanisms import MECHANISMS
from .pipeline import Pipeline, PipelineConfig, PipelineConfigError, compare_strategies
from .presets import STRATEGIES

_STAGE_COMMANDS = {
    "gen-data": ("gen_data",),
    "encode": ("encode",),
    "synth": ("synthesize",),
    "decode": ("decode",),
    "eval": ("evaluate",),
    "pipeline": ("gen_data", "encode", "synthesize", "decode", "evaluate"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthbank",
        description="Differentially private synthetic banking microdata pipeline.",
        epilog=(
            f"Config keys: application ({'|'.join(APPS)}), strategy ({'|'.join(STRATEGIES)}), "
            f"mechanism.name ({'|'.join(MECHANISMS)}), "
            "mechanism.selection_fraction, mechanism.rounds, "
            "mechanism.workload, mechanism.pac.{eta,delta_k}, privacy.{epsilon,delta} "
            "(null for the noiseless diagnostic mode), decode.{mode,bandwidth,grid_points}, "
            "input.datagen.* or input.files.*, rule_overrides.<column>, n_synthetic, "
            "seed, output."
        ),
    )
    commands = (*_STAGE_COMMANDS, "compare")
    parser.add_argument(
        "command", choices=commands, metavar="command",
        help=f"the step to run: {', '.join(commands)}",
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--mechanism", help="override mechanism.name")
    parser.add_argument("--strategy", help="override the strategy")
    parser.add_argument("--epsilon", type=float, help="override privacy.epsilon")
    parser.add_argument("--delta", type=float, help="override privacy.delta")
    return parser


def _apply_overrides(doc: dict, args) -> dict:
    """The config document with the command-line flags written into it."""
    if not isinstance(doc, dict):
        return doc  # ``PipelineConfig.from_dict`` reports it
    doc = dict(doc)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["output"] = args.out
    if args.strategy is not None:
        doc["strategy"] = args.strategy
    # a null section reads as an empty one, as in ``from_dict``, except that
    # a budget flag on ``privacy: null`` starts from the default budget; a
    # section that is no object is left for ``from_dict`` to report
    mech = doc.get("mechanism")
    mech = {} if mech is None else mech
    if args.mechanism is not None and isinstance(mech, dict):
        doc["mechanism"] = {**mech, "name": args.mechanism}
    budget = {key: value for key, value in (("epsilon", args.epsilon), ("delta", args.delta))
              if value is not None}
    privacy = doc.get("privacy")
    if privacy is None:
        privacy = {"epsilon": PipelineConfig.epsilon, "delta": PipelineConfig.delta}
    if budget and isinstance(privacy, dict):
        doc["privacy"] = {**privacy, **budget}
    return doc


def _config_error(lines) -> int:
    for line in lines:
        print(f"config error: {line}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
        config = PipelineConfig.from_dict(_apply_overrides(doc, args))
    except PipelineConfigError as exc:
        return _config_error(exc.errors)
    except (OSError, ValueError) as exc:
        return _config_error([exc])

    try:
        if args.command == "compare":
            comparison = compare_strategies(config)
            for metric, row in comparison["rows"].items():
                sides = " ".join(f"{s}={row[s]}" for s in STRATEGIES)
                print(f"{metric}: {sides} winner={row['winner']}")
            return 0
        pipeline = Pipeline(config)
        for step in _STAGE_COMMANDS[args.command]:
            getattr(pipeline, step)()
        if pipeline.report is not None:
            metrics = pipeline.report["metrics"]
            print(f"application: {config.application} ({config.strategy}, {config.mechanism})")
            print(f"relative_error: {metrics.get('relative_error')}")
        print(f"artifacts written to {config.output}")
        return 0
    except PipelineConfigError as exc:  # found only once a stage has read the data
        return _config_error(exc.errors)
    except Exception as exc:
        stage = args.command
        print(f"stage '{stage}' failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
