"""Setuptools shim.

Nothing here is needed to run the code: every ``Makefile`` target, the CI job
and the benchmark import ``repro`` straight from the checkout with
``PYTHONPATH=src``.  The file carries no package metadata; the CI workflow
keys its pip cache on it.
"""

from setuptools import setup

setup()
