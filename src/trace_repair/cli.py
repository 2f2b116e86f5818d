"""Command-line entry points.

Verbs: run (alias replay), baseline, filter, sample, report. Configuration
precedence: built-in defaults < --config JSON file < environment
variables < explicit flags. ``run`` and ``baseline`` build their config
flags from ``policy.SOURCES``; only ``--config`` and the inverted
``--[no-]equation-support`` are written here. A refused input (a bad
file, config value, provider setting or sample size, or a replay cache
miss) exits with status 2 and one line on stderr, as a refused flag does.
The rule's owner refuses it (``RunManifest.validate``, say), not this CLI.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .pipeline import (
    BASELINE_MODES,
    MODE_GUARDED,
    PROVIDERS,
    RunManifest,
    filter_dataset,
    recompute_report,
    run_pipeline,
)
from .policy import SOURCES, PolicyConfig, config_from_env, config_from_mapping
from .providers import RemoteProvider, ReplayCacheMiss
from .reporting import render_report


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` and each ``SOURCES`` flag, typed by its field's default."""
    parser.add_argument("--config", type=Path, help="JSON file of config overrides")
    defaults = PolicyConfig()
    for name, (_, flag) in SOURCES.items():
        kind = type(getattr(defaults, name))
        if name == "disable_equation_support":
            # The one inverted flag: --no-equation-support sets the field to true.
            parser.add_argument(
                "--equation-support",
                action=argparse.BooleanOptionalAction,
                dest="equation_support",
                default=None,
                help="require equation support (disable for the ablation)",
            )
        elif flag is not None and kind is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, dest=name, default=None)
        elif flag is not None:
            parser.add_argument(flag, type=kind, dest=name)


def _build_config(args: argparse.Namespace) -> PolicyConfig:
    config = PolicyConfig()
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as handle:
            try:
                values = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not JSON ({exc})") from None
        if not isinstance(values, dict):
            raise ValueError(f"{args.config}: a JSON {type(values).__name__}, not an object")
        config = config_from_mapping(values, base=config)
    config = config_from_env(base=config)
    # A flag's dest is its config field's name; fields without a flag read None.
    overrides = {
        field.name: getattr(args, field.name)
        for field in fields(PolicyConfig)
        if getattr(args, field.name, None) is not None
    }
    if getattr(args, "equation_support", None) is not None:
        overrides["disable_equation_support"] = not args.equation_support
    return config.with_overrides(**overrides) if overrides else config


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", type=Path, required=True)
    parser.add_argument("--output-dir", type=Path, required=True)
    parser.add_argument("--provider", choices=PROVIDERS, default="replay")
    parser.add_argument("--cache", type=Path, help="candidate cache for the replay provider")
    parser.add_argument(
        "--concurrency",
        type=int,
        help="examples in flight at once with the remote provider "
        f"(default {RemoteProvider.DEFAULT_CONCURRENCY})",
    )
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--harm-budget", type=float, default=None)
    _add_config_flags(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trace-repair",
        description="Guarded selective replacement for cached reasoning traces.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser(
        "run",
        aliases=["replay"],
        help="guarded repair over a dataset (replay: from a candidate cache)",
    )
    run_cmd.set_defaults(mode=MODE_GUARDED)
    _add_run_flags(run_cmd)

    baseline_cmd = commands.add_parser("baseline", help="direct-regeneration baselines")
    baseline_cmd.add_argument("--mode", choices=BASELINE_MODES, required=True)
    _add_run_flags(baseline_cmd)

    filter_cmd = commands.add_parser("filter", help="numeric answer filtering")
    filter_cmd.add_argument("--dataset", type=Path, required=True)
    filter_cmd.add_argument("--output-dir", type=Path, required=True)

    sample_cmd = commands.add_parser("sample", help="filter then sample a subset")
    sample_cmd.add_argument("--dataset", type=Path, required=True)
    sample_cmd.add_argument("--output-dir", type=Path, required=True)
    sample_cmd.add_argument("--size", type=int, required=True)
    sample_cmd.add_argument("--seed", type=int, required=True)

    report_cmd = commands.add_parser("report", help="recompute a report from predictions")
    report_cmd.add_argument("--predictions", type=Path, required=True)
    report_cmd.add_argument("--output-dir", type=Path, required=True)
    report_cmd.add_argument("--harm-budget", type=float, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "filter":
            _, counts = filter_dataset(args.dataset, args.output_dir)
            print(json.dumps(counts["rejected"], indent=2))
            return 0

        if args.command == "sample":
            paths, _ = filter_dataset(args.dataset, args.output_dir, args.size, args.seed)
            print(f"sampled ids written to {paths['sample_ids']}")
            return 0

        if args.command == "report":
            result = recompute_report(args.predictions, args.output_dir, args.harm_budget)
        else:
            result = run_pipeline(
                RunManifest(
                    mode=args.mode,
                    dataset_path=args.dataset,
                    output_dir=args.output_dir,
                    config=_build_config(args),
                    provider=args.provider,
                    cache_path=args.cache,
                    resume=args.resume,
                    harm_budget=args.harm_budget,
                    concurrency=args.concurrency,
                )
            )
        print(render_report(result.report), end="")
        return 0
    except (ValueError, OSError, ReplayCacheMiss) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
