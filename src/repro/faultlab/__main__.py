"""Entry point for ``python -m repro.faultlab``."""

from repro.entry import run_main
from repro.faultlab.cli import main

if __name__ == "__main__":
    run_main(main)
