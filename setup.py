"""Package metadata for ``pip install -e .`` (or ``pip install .``).

The code lives under ``src/repro`` and has no required runtime dependency.
Two extras pull in optional packages: ``vectorized`` (numpy, for the
vectorized allocator) and ``yaml`` (pyyaml, for YAML scenario files).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    extras_require={"vectorized": ["numpy"], "yaml": ["pyyaml"]},
)
