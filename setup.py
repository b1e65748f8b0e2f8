"""Packaging metadata for the ``repro`` library.

All metadata lives here; the repository has no ``pyproject.toml``.  The
offline environment ships setuptools without the ``wheel`` package, so
PEP 517 editable installs fail at ``bdist_wheel``, and
``pip install -e . --no-build-isolation`` falls back to the legacy
``setup.py develop`` path.  The dependency floors are the ones CI installs.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Gopher: interpretable data-based explanations for fairness debugging",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
