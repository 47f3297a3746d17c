"""Entry point for ``python -m repro.devtools.schedlint``."""

from repro.devtools.schedlint.cli import main
from repro.entry import run_main

if __name__ == "__main__":
    run_main(main)
