"""Experiment configuration shared by the CLI commands.

Every command embeds the full configuration and a content hash of its inputs
in the emitted JSON, so results are reproducible byte-for-byte given the same
config and worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Optional


@dataclass
class ExperimentConfig:
    rho: float = 0.5
    n_angles: int = 2048
    atom_pitch: Optional[float] = None      # None: min segment length / 64
    triadic_depth: int = 5                  # N
    k_max: int = 5
    c_eps: float = 2.0**-6
    c_lambda: float = 2.0**-8
    big_lambda: float = 2.0**6
    c_n: float = 8.0
    c_y: float = 0.25
    c_j: float = 1.0
    c_m: float = 6.0                        # M = c_m / kappa
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.5):
            raise ValueError("rho must lie in (0, 1/2]")
        if self.n_angles < 2:
            raise ValueError("n_angles must be >= 2")
        if self.k_max < 0 or self.triadic_depth < 0:
            raise ValueError("k_max and triadic_depth must be >= 0")
        if self.atom_pitch is not None and not 0.0 < self.atom_pitch < math.inf:
            raise ValueError(f"atom_pitch must be finite and > 0, got {self.atom_pitch}")
        env = os.environ.get("FAVARD_WORKERS")
        if env:
            self.workers = max(1, int(env))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def tree_params(self):
        from .tree import TreeParams
        return TreeParams(rho=self.rho, k_max=self.k_max,
                          triadic_depth=self.triadic_depth, c_eps=self.c_eps,
                          c_j=self.c_j, c_lambda=self.c_lambda,
                          big_lambda=self.big_lambda, c_n=self.c_n, c_y=self.c_y)


def content_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
