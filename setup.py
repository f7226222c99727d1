"""Setup shim.

Metadata lives in ``pyproject.toml``; this file exists only for the legacy
``python setup.py develop`` editable install, which works offline on hosts
whose setuptools predates PEP 660 editable wheels or that lack the
``wheel`` package (where ``pip install -e .`` cannot build).
"""

from setuptools import setup

setup()
