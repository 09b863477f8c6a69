"""Setuptools metadata for the ``repro`` package (a reproduction of the
Leopard BFT protocol).  Install with ``pip install -e .``; the library
itself needs only numpy."""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    description="Leopard: high throughput-preserving BFT for large-scale "
                "systems (reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
