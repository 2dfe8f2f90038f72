"""Setuptools entry point.

The offline environment lacks the ``wheel`` package that PEP 660
editable installs require, so ``pip install -e .`` falls back to the
legacy ``setup.py develop`` path through this file.  Metadata is
declared here (rather than in ``pyproject.toml``'s ``[project]`` table)
to keep that legacy path working on old setuptools; ``pyproject.toml``
carries the build-system pin and tool configuration (ruff).
"""

import os

from setuptools import find_packages, setup

long_description = ""
if os.path.exists("README.md"):
    with open("README.md", encoding="utf-8") as handle:
        long_description = handle.read()

setup(
    name="repro-hdoms",
    version="1.0.0",
    description=(
        "Reproduction of 'Efficient Open Modification Spectral Library "
        "Searching in High-Dimensional Space with Multi-Level-Cell Memory' "
        "(Fan et al., DAC 2024)"
    ),
    long_description=long_description,
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "dev": [
            "pytest",
            "hypothesis",
            "ruff",
        ],
    },
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
            "hdoms = repro.cli:main",
        ],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Bio-Informatics",
    ],
)
