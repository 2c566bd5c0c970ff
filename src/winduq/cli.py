"""Command line interface for the experiment harness.

Subcommands map to the canned experiments::

    winduq synthetic      --config cfg [--seed N] [--out-dir DIR]
    winduq data-property  --config cfg [--dataset scada.csv] [--seed N] [--out-dir DIR]
    winduq scaling        --config cfg [--dataset series.csv] [--seed N] [--out-dir DIR]
    winduq decompose      --config cfg --dataset inputs.csv [--seed N] [--out-dir DIR]

Config files are flat 'key = value' text; unknown keys are rejected.  The
output directory resolves as: WINDUQ_OUT_DIR environment variable, then
--out-dir, then the config file, then a per-experiment default.  Every
invocation that gets past argument parsing leaves a manifest.json there.  One
that fails prints a one-line error, and its manifest says ``status: failed``
and echoes the raw config entries (and the resolved config, if any); a config
that fails validation fails before the first fit, leaving only that manifest.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from pathlib import Path

from .experiments import (
    OUT_DIR_ENV_VAR,
    RUNNERS,
    build_config,
    read_config_file,
    write_failed_manifest,
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
        p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--dataset", default=None, help="input CSV (experiment-specific)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    experiment = _COMMANDS[args.command][0]
    # flags override the file, and the env var the output directory; each flag stays
    # a string, parsed like its config key, so 1_000 is no seed and "" no directory
    flags = {"seeds": args.seed, "dataset": args.dataset,
             "out_dir": os.environ.get(OUT_DIR_ENV_VAR) or args.out_dir}
    entries = {key: value for key, value in flags.items() if value is not None}
    cfg = None
    try:
        if args.config is not None:
            entries = {**read_config_file(args.config), **entries}
        cfg = build_config(experiment, entries)
        manifest = RUNNERS[experiment](cfg)
        n_files, n_cells = len(manifest["artifacts"]), len(manifest.get("cells", []))
        print(f"{experiment}: wrote {n_files} artifact(s) ({n_cells} cell(s)) to {cfg.out_dir} "
              f"in {manifest['wall_time_s']:.1f}s")
        return 0
    except (FileNotFoundError, ValueError, RuntimeError) as exc:  # ConfigError is a ValueError
        error, trace = str(exc), None
    except Exception as exc:  # unexpected: still one line, the traceback goes to the manifest
        error, trace = f"{type(exc).__name__}: {exc}", traceback.format_exc()
    print(f"error: {error}", file=sys.stderr)
    try:
        write_failed_manifest(experiment, entries, cfg, error, trace)
    except OSError:
        pass  # the diagnostic on stderr is the best we can do
    return 1


if __name__ == "__main__":
    sys.exit(main())
