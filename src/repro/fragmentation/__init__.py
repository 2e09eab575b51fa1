"""Fragmented objects in non-monolithic systems — the §5 outlook.

Sibling of :mod:`repro.replication`: studies whether the paper's
conflict story extends to fragmentation [MGL+94], and how fragment
granularity trades per-conflict damage against per-block message
overhead.  See ``repro-experiment fragmentation --check``.
"""

from repro.fragmentation.workload import (
    FragmentationParameters,
    FragmentationWorkload,
)

__all__ = [
    "FragmentationParameters",
    "FragmentationWorkload",
]
