"""Entry point for ``python -m repro.obs``."""

from repro.entry import run_main
from repro.obs.cli import main

if __name__ == "__main__":
    run_main(main)
