"""Command-line front end: ``python -m repro.devtools.schedflow src/repro``.

Exit status matches schedlint: 0 clean, 1 findings, 2 crash/usage.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.devtools.schedlint import LintError
from repro.devtools.schedflow.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.devtools.schedflow.engine import RULES, analyze_project
from repro.devtools.schedflow.project import ProjectIndex
from repro.devtools.schedflow.sarif import write_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.schedflow",
        description="Interprocedural dataflow checker: determinism taint, "
                    "unit/dimension analysis, SMP shared-state discipline.")
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories forming ONE project "
             "(directories recurse into *.py)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes or prefixes to report "
             "(e.g. SF205 or SF4; default: all)")
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings fingerprinted in this baseline file")
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the surviving findings to FILE as a new baseline "
             "and exit 0")
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="also write the findings as SARIF 2.1.0 to FILE")
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line; print findings only")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns the process exit status (0/1/2)."""
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for code, (name, summary) in sorted(RULES.items()):
            print("%s  %-22s %s" % (code, name, summary))
        return 0

    if not options.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2

    select = None
    if options.select:
        select = set()
        unknown = []
        for token in options.select.split(","):
            token = token.strip().upper()
            if not token:
                continue  # `SF4,` / `SF4,,SF204`: blanks select nothing
            matched = {code for code in RULES
                       if code == token or code.startswith(token)}
            if not matched:
                unknown.append(token)
            select.update(matched)
        if unknown:
            print("error: unknown rule codes: %s" % ", ".join(sorted(unknown)),
                  file=sys.stderr)
            return 2
        if not select:
            print("error: --select %r selects no rules" % options.select,
                  file=sys.stderr)
            return 2

    try:
        index = ProjectIndex.load(options.paths)
        findings = analyze_project(index, select=select)
        source_lines = {
            entry.path: entry.source.splitlines()
            for entry in index.entries}
        if options.baseline:
            findings = apply_baseline(
                findings, load_baseline(options.baseline), source_lines)
        if options.write_baseline:
            count = write_baseline(options.write_baseline, findings,
                                   source_lines)
            print("schedflow: wrote %d fingerprint%s to %s" % (
                count, "" if count == 1 else "s", options.write_baseline))
            return 0
        if options.sarif:
            write_sarif(options.sarif, findings, RULES)
    except LintError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # a pass crashed: not a finding, not usage
        print("error: internal failure: %s: %s"
              % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    for finding in findings:
        print(finding)
    if not options.quiet:
        if findings:
            print("schedflow: %d finding%s" % (
                len(findings), "" if len(findings) == 1 else "s"))
        else:
            print("schedflow: clean")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    from repro.entry import run_main
    run_main(main)
