"""Command-line entry point.

    qwreath validate <preset> [--degree N] [--json]
    qwreath pbw <preset> [--degree N] [--json]

<preset> is a shipped preset name (``pro_p``, ``pro_p(4)``, ...) or the path
of a preset file (.json or .toml, see ``load_preset_file``).  ``validate``
runs the axiom checks A1-A3 and C1-C3, ``pbw`` the basis-existence
conditions P1-P9.  The report goes to standard output, as text or with
``--json`` as one JSON object.  The exit code is 0 when every check passed,
1 when one failed, and 2 for a preset that cannot be loaded or bad
arguments.  A reader that closes standard output early (``| head``) leaves
the exit code that of the report.
"""

from __future__ import annotations

import argparse
import os
import sys

from .base_algebra import (
    InvalidConfig, PresetNotFound, load_preset_file, preset, validate_pqwp,
    verify_pbw_conditions,
)

_COMMANDS = {
    "validate": (validate_pqwp, "check the axioms A1-A3 and C1-C3"),
    "pbw": (verify_pbw_conditions, "check the basis-existence conditions P1-P9"),
}


def _load(spec: str):
    if spec.endswith((".json", ".toml")):
        return load_preset_file(spec)
    return preset(spec)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qwreath", description="Certify a quantum wreath product parameter pack.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        cmd.add_argument("preset", help="a shipped preset name or a .json/.toml preset file")
        cmd.add_argument("--degree", type=int, default=3,
                         help="x-degree bound of the checks (default 3)")
        cmd.add_argument("--json", action="store_true", help="print the report as JSON")
    args = parser.parse_args(argv)
    if args.degree < 0:
        parser.error("--degree must be non-negative")
    try:
        params = _load(args.preset)
    except (PresetNotFound, InvalidConfig, OSError) as exc:
        print(f"qwreath: cannot load preset {args.preset!r}: {exc}", file=sys.stderr)
        return 2
    check, _ = _COMMANDS[args.command]
    report = check(params, args.degree)
    try:
        print(report.to_json() if args.json else report, flush=True)
    except BrokenPipeError:
        # the reader is gone; devnull takes the flush at exit instead
        sys.stdout = open(os.devnull, "w")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
