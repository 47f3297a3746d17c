"""Entry point for ``python -m repro.devtools.schedflow``."""

from repro.devtools.schedflow.cli import main
from repro.entry import run_main

if __name__ == "__main__":
    run_main(main)
