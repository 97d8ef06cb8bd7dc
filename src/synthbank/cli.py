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

from .pipeline import (
    DEFAULT_PRIVACY,
    Pipeline,
    PipelineConfig,
    PipelineConfigError,
    compare_strategies,
)

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
            "Config keys: application (fi|yield|credit), strategy (cbp|data_driven), "
            "mechanism.name (mst|aim|pac), mechanism.selection_fraction, mechanism.rounds, "
            "mechanism.workload, mechanism.pac.{k,eta,delta_k}, privacy.{epsilon,delta} "
            "(null for the noiseless diagnostic mode), decode.{mode,bandwidth,grid_points}, "
            "input.datagen.* or input.files.*, rule_overrides.<column>, n_synthetic, "
            "seed, output."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_STAGE_COMMANDS, "compare"):
        cmd = sub.add_parser(name, help=f"run the {name} step")
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument("--mechanism", help="override mechanism.name")
        cmd.add_argument("--strategy", help="override the strategy")
        cmd.add_argument("--epsilon", type=float, help="override privacy.epsilon")
        cmd.add_argument("--delta", type=float, help="override privacy.delta")
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
    if args.mechanism is not None:
        mech = doc.get("mechanism", {})
        if isinstance(mech, dict):
            doc["mechanism"] = {**mech, "name": args.mechanism}
        else:
            doc["mechanism"] = args.mechanism
    if args.epsilon is not None or args.delta is not None:
        privacy = doc.get("privacy", DEFAULT_PRIVACY)
        privacy = dict(privacy) if isinstance(privacy, dict) else {}
        if args.epsilon is not None:
            privacy["epsilon"] = args.epsilon
        if args.delta is not None:
            privacy["delta"] = args.delta
        doc["privacy"] = privacy
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
                print(
                    f"{metric}: cbp={row['cbp']} data_driven={row['data_driven']} "
                    f"winner={row['winner']}"
                )
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
