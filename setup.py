"""Setup script for the moments-sketch reproduction.

A classic setup.py layout (rather than pyproject.toml) is used
deliberately: this project targets offline environments where pip's PEP 517
build isolation cannot download build dependencies, and the legacy editable
path (`setup.py develop`) needs neither network access nor the `wheel`
package.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    description="Moments sketch for high-cardinality quantile aggregation",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
