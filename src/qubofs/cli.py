"""Command-line entry point: ``qubofs COMMAND --config FILE [flags]``.

The command runs the pipeline up to a stage, reusing any artifacts already in
the output directory: synth, prepare, train-cf, build-qubo, select, train-cbf,
evaluate, pipeline, stats. Every command takes the same flags, before or after
it.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 infeasible stage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import errors
from .config import ExperimentConfig
from .pipeline import Pipeline

# command -> the Pipeline method it runs; every stage reuses the artifacts
# already in the output directory
COMMANDS = {
    "synth": "ensure_synth",
    "prepare": "ensure_splits",
    "train-cf": "ensure_cf_model",
    "build-qubo": "ensure_qubos",
    "select": "ensure_selections",
    "train-cbf": "ensure_final",
    "evaluate": "ensure_reports",
    "pipeline": "run",
    "stats": "write_feature_stats",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qubofs",
        description="QUBO-based feature selection for cold-start recommenders",
    )
    parser.add_argument("command", choices=COMMANDS, help="the stage to run up to")
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--workers", type=int, default=None, help="override worker count")
    parser.add_argument("--solver", choices=("exhaustive", "sa"), default=None,
                        help="override QUBO solver")
    parser.add_argument("--samples", type=int, default=None, help="override annealer sample count")
    return parser


def _given(**overrides) -> dict:
    return {k: v for k, v in overrides.items() if v is not None}


def load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides applied; ``replace``
    runs the specs' checks again, so overrides meet the file's rules."""
    cfg = ExperimentConfig.from_json_file(args.config)
    solver = dataclasses.replace(cfg.solver, **_given(kind=args.solver, num_samples=args.samples))
    return dataclasses.replace(cfg, solver=solver, **_given(seed=args.seed, workers=args.workers))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        if args.command == "synth" and cfg.dataset.synth is None:
            raise errors.ConfigInvalid("synth stage needs a dataset.synth section")
        out_dir = Path(args.out) if args.out else Path("runs") / cfg.config_hash()
        pipeline = Pipeline(cfg, out_dir)
        result = getattr(pipeline, COMMANDS[args.command])()
        if args.command == "stats":
            sys.stdout.write(result)
    except errors.QubofsError as exc:
        # every toolkit error carries its exit code and message prefix
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(f"{args.command}: done ({pipeline.out})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
