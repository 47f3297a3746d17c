"""Legacy setup shim.

Kept so ``pip install -e .`` works offline with older setuptools (no wheel
package available); all metadata lives in setup.cfg.
"""

from setuptools import setup

setup()
