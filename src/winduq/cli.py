"""Command line interface for the experiment harness.

Subcommands map to the canned experiments::

    winduq synthetic      --config cfg [--seed N] [--out-dir DIR]
    winduq data-property  --config cfg [--dataset scada.csv] [--seed N] [--out-dir DIR]
    winduq scaling        --config cfg [--dataset series.csv] [--seed N] [--out-dir DIR]
    winduq decompose      --config cfg --dataset inputs.csv [--seed N] [--out-dir DIR]

Config files are flat 'key = value' text; unknown keys are rejected.  The
output directory resolves as: WINDUQ_OUT_DIR environment variable, then
--out-dir, then the config file, then a per-experiment default.  A
manifest.json is written into the output directory for every invocation that
gets as far as resolving its configuration, including failed ones; a config
that fails validation fails before the first fit, leaving only that manifest.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from pathlib import Path

from .experiments import (
    OUT_DIR_ENV_VAR,
    RUNNERS,
    ConfigError,
    ExperimentConfig,
    _resolve_entries,
    _validate_config,
    _write_run_manifest,
    read_config_file,
)

_COMMANDS = {  # subcommand: (experiment, help line)
    "synthetic": ("synthetic_ood", "sine benchmark: in-domain vs extrapolation uncertainty"),
    "data-property": ("data_property", "wind table: uncertainty vs sample density and speed band"),
    "scaling": ("dataset_scaling", "growing training subsets: epistemic uncertainty vs data size"),
    "decompose": ("decompose", "decompose a saved posterior over a CSV of input rows"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winduq",
        description="Train posterior samplers and split predictive variance "
        "into aleatoric and epistemic parts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
        p.add_argument("--seed", default=None, help="override the seed list with one seed")
        p.add_argument("--out-dir", type=Path, default=None, help="output directory")
        p.add_argument("--dataset", type=Path, default=None, help="input CSV (experiment-specific)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    # build_config minus its validation, so a config that fails it gets a manifest
    experiment = _COMMANDS[args.command][0]
    entries: dict[str, str] = {}
    if args.config is not None:
        if not args.config.is_file():
            raise ConfigError(f"config file not found: {args.config}")
        entries = read_config_file(args.config)
    # command line flags override the file; the env var overrides everything,
    # but only for the output directory
    if args.seed is not None:  # parsed like the config key, so 1_000 is no integer
        entries["seeds"] = args.seed
    if args.dataset is not None:
        entries["dataset"] = str(args.dataset)
    if args.out_dir is not None:
        entries["out_dir"] = str(args.out_dir)
    env_dir = os.environ.get(OUT_DIR_ENV_VAR)
    if env_dir:
        entries["out_dir"] = env_dir
    return _resolve_entries(experiment, entries)


def _write_failure_manifest(
    cfg: ExperimentConfig | None, error: str, trace: str | None = None
) -> None:
    if cfg is None:
        return
    fields = {"error": error} if trace is None else {"error": error, "traceback": trace}
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _write_run_manifest(cfg, "failed", [], [], 0.0, **fields)
    except OSError:
        pass  # the diagnostic on stderr is the best we can do


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg: ExperimentConfig | None = None
    try:
        cfg = _resolve_config(args)
        _validate_config(cfg)
        t0 = time.monotonic()
        manifest = RUNNERS[cfg.experiment](cfg)
        n_cells = len(manifest.get("cells", []))
        print(
            f"{cfg.experiment}: wrote {len(manifest['artifacts'])} artifact(s) "
            f"({n_cells} cell(s)) to {cfg.out_dir} in {time.monotonic() - t0:.1f}s"
        )
        return 0
    except (ConfigError, FileNotFoundError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        _write_failure_manifest(cfg, str(exc))
        return 1
    except Exception as exc:  # unexpected: still one line, the traceback goes to the manifest
        message = f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        _write_failure_manifest(cfg, message, traceback.format_exc())
        return 1


if __name__ == "__main__":
    sys.exit(main())
