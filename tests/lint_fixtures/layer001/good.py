"""LAYER001 negative fixture, linted as a module of repro.cache: its own
package, the sim substrate and third-party imports."""

import numpy as np

from repro import sim
from repro.cache.lru import LRUCache
from repro.sim.units import KIB


def build():
    return np, sim, LRUCache, KIB
