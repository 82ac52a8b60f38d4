"""LAYER001 positive fixture, linted as a module of repro.cache: imports of
the layers above the substrate."""

import repro.api
from repro import serving
from repro.core import SDMConfig


def build():
    from repro.runtime import run_campaign

    return repro.api, serving, SDMConfig, run_campaign
