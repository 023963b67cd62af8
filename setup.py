"""Packaging metadata for the tagged-execution reproduction.

Kept in ``setup.py`` (rather than a PEP 621 ``[project]`` table) so that
``pip install -e .`` works in fully offline environments where the ``wheel``
package is unavailable and PEP 660 editable builds cannot be performed;
``pyproject.toml`` only pins the build system.
"""

from pathlib import Path

from setuptools import find_packages, setup

README = Path(__file__).resolve().parent / "README.md"

setup(
    name="repro-tagged-execution",
    version="1.1.0",
    description=(
        "Reproduction of 'Optimizing Disjunctive Queries with Tagged "
        "Execution' (SIGMOD 2024): a columnar engine with tagged and "
        "traditional execution models plus a caching query service"
    ),
    long_description=README.read_text(encoding="utf-8"),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # NumPy 2 promotion (NEP 50): a literal compared as a 0-d array must
    # promote like the full-width array of it (repro.expr.ast.Literal.scalar).
    install_requires=["numpy>=2"],
    extras_require={
        "test": ["pytest", "hypothesis"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Database :: Database Engines/Servers",
    ],
)
