"""Setuptools packaging for the repro library.

``pip install .`` (or ``-e .``) installs the ``repro`` package from ``src/``
and a ``repro`` console script — the same entry point as ``python -m repro``
— so installed environments get the jobs CLI on their ``PATH``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'A Methodology for Mapping Multiple Use-Cases onto "
        "Networks on Chips' (Murali et al., DATE 2006)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["networkx"],
    entry_points={
        "console_scripts": [
            "repro = repro.jobs.cli:main",
        ],
    },
)
