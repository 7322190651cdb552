"""Reference instances shared by the CLI check commands and the test suite."""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .sets import DiscreteMeasure, SegmentUnion, four_corners, split_parallel
from .torus import TriadicInterval
from .tree import GoodStages, build_good_stages

# [6/27, 7/27): a transverse (near-vertical) triadic direction interval
TRANSVERSE_ROOT = TriadicInterval(3, 6)
# the Ahlfors constant A and the projection bound M of every fixture
FIXTURE_A, FIXTURE_M = 2.0, 8.0


def single_line_instance(pitch: float = 1.0 / 128.0):
    """One horizontal unit segment; families point at the transverse root."""
    union = SegmentUnion.from_endpoints([(0.0, 0.0)], [(1.0, 0.0)])
    atoms = union.atoms(pitch)
    root_iv = TRANSVERSE_ROOT
    families = {i: [root_iv] for i in range(len(atoms))}
    eprime = np.ones(len(atoms), dtype=bool)
    return union, atoms, eprime, families, root_iv


def two_direction_instance():
    """Two spatially separated clusters carrying different triadic children.

    The left cluster's atoms carry the left child of the root interval, the
    right cluster's the right child, so the first tree generation must shatter.
    """
    root_iv = TRANSVERSE_ROOT
    left_dir, _, right_dir = root_iv.children()
    xs_left = np.linspace(0.0, 0.35, 24)
    xs_right = np.linspace(0.65, 1.0, 24)
    pts = np.concatenate([
        np.column_stack([xs_left, np.zeros_like(xs_left)]),
        np.column_stack([xs_right, np.zeros_like(xs_right)]),
    ])
    atoms = DiscreteMeasure(pts, np.full(len(pts), 1.0 / len(pts)))
    families = {i: [left_dir] if i < len(xs_left) else [right_dir] for i in range(len(pts))}
    eprime = np.ones(len(pts), dtype=bool)
    return atoms, eprime, families, root_iv


def cantor_horizontal_instance(pitch: float = 1.0 / 96.0):
    """The horizontal part of the four_corners(2) skeleton, scaled to diam <= 1."""
    horiz, _ = split_parallel(four_corners(2).skeleton())
    scale = 0.7  # diameter of the unit-square skeleton is sqrt(2)
    union = horiz.mapped(lambda pts: pts * scale)
    atoms = union.atoms(pitch * scale)
    root_iv = TRANSVERSE_ROOT
    families = {i: [root_iv] for i in range(len(atoms))}
    eprime = np.ones(len(atoms), dtype=bool)
    return union, atoms, eprime, families, root_iv


def stages_for(atoms, eprime, families, root_iv, params: ExperimentConfig) -> GoodStages:
    return build_good_stages(atoms, eprime, families, root_iv, FIXTURE_A, FIXTURE_M, params)
