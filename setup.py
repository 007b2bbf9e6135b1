"""Package metadata and build entry point for :mod:`repro`.

All metadata lives here: the distribution name, the version read from
``src/repro/_version.py`` (the package's single version source), the
``src`` layout and the runtime requirements.  ``pip install -e .`` works
on environments whose setuptools predates self-contained PEP 660
editable builds (no ``wheel`` package available offline).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_VERSION_FILE = Path(__file__).parent / "src" / "repro" / "_version.py"
_VERSION = re.search(
    r'^__version__ = "([^"]+)"', _VERSION_FILE.read_text(), re.MULTILINE
).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=(
        "D2PR and PageRank: node degrees versus node significances "
        "(EDBT 2016 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
)
