"""Legacy setup shim.

The offline environment this project targets has setuptools but no
``wheel`` package, so PEP 517 editable installs cannot build a wheel
for metadata.  Keeping a ``setup.py`` (and omitting ``[build-system]``
from pyproject.toml) makes ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "SLP-aware word-length optimization for embedded SIMD processors "
        "(DATE 2017 reproduction)"
    ),
    author="repro contributors",
    license="MIT",
    # Keep in sync with [tool.ruff] target-version in pyproject.toml
    # and the CI test matrix (.github/workflows/ci.yml).
    python_requires=">=3.10",
    classifiers=[
        "License :: OSI Approved :: MIT License",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
    ],
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    # numpy is the only runtime dependency; scipy and networkx are test
    # oracles for the filter designs and the dependence graph.
    install_requires=["numpy"],
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy", "networkx"]
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
