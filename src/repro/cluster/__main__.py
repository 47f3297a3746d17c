"""``python -m repro.cluster`` — see :mod:`repro.cluster.cli`."""

from repro.cluster.cli import main
from repro.entry import run_main

if __name__ == "__main__":
    run_main(main)
