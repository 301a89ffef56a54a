"""Desk-scale GAN laboratory: feature suppression, gradient selection, metrics.

Import the submodules (`ufs_lab.gan`, `ufs_lab.harness`, ...) for the API.
"""

from .numerics import SeededRng

__version__ = "0.1.0"
