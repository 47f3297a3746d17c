"""Command-line front end: ``python -m repro.devtools.schedlint src/``.

Exit status: 0 when every checked file is clean, 1 when findings were
reported, 2 on usage or I/O errors — the same convention as pyflakes,
so CI and ``make lint`` wire it up with no adapter.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devtools.schedlint import LintError, all_rules, check_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.schedlint",
        description="Determinism and scheduler-contract static checker.")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to check (directories recurse into *.py)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line; print findings only")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the checker; returns the process exit status (0/1/2)."""
    parser = _build_parser()
    options = parser.parse_args(argv)

    rules = all_rules()
    if options.list_rules:
        for rule in rules:
            print("%s  %-16s %s" % (rule.code, rule.name, rule.summary))
        return 0

    if not options.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    if options.select:
        wanted = {code.strip().upper() for code in options.select.split(",")}
        unknown = wanted - {rule.code for rule in rules}
        if unknown:
            print("error: unknown rule codes: %s" % ", ".join(sorted(unknown)),
                  file=sys.stderr)
            return 2
        rules = tuple(rule for rule in rules if rule.code in wanted)

    try:
        findings = check_paths(options.paths, rules=rules)
    except LintError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a rule crashed: not a finding, not usage
        print("error: internal failure: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    for finding in findings:
        print(finding)
    if not options.quiet:
        if findings:
            print("schedlint: %d finding%s" % (
                len(findings), "" if len(findings) == 1 else "s"))
        else:
            print("schedlint: clean")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    from repro.entry import run_main
    run_main(main)
