"""Experiment configuration shared by the CLI commands and the library.

One object holds every constant a run can set; the tree pipeline reads it
directly. Keys (a config file may set any subset; unknown keys are an error):

- ``rho``: scale ratio of the dyadic annuli, in (0, 1/2].
- ``n_angles``: midpoint-rule angles of the quadrature and direction grid, >= 2.
- ``atom_pitch``: atom spacing along segments; None picks min segment length / 64.
- ``triadic_depth``: N, the deepest shattering level below the root interval.
- ``k_max``: the number of tree generations grown.
- ``c_eps``: eps = c_eps / (A M), the stage coverage slack.
- ``c_j``: the root-interval length budget c_j / (A M).
- ``c_m``: the projection bound M = c_m / kappa.
- ``seed``: seed of every random draw.
- ``workers``: threads of the Favard quadrature.

Every command embeds the full configuration and a content hash of its inputs
in the emitted JSON, so results are reproducible byte-for-byte given the same
config and worker count; ``write_json`` writes every such file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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
    c_j: float = 1.0
    c_m: float = 6.0                        # M = c_m / kappa
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not (0.0 < self.rho <= 0.5):
            raise ValueError("rho must lie in (0, 1/2]")
        if self.atom_pitch is not None and not 0.0 < self.atom_pitch < math.inf:
            raise ValueError(f"atom_pitch must be finite and > 0, got {self.atom_pitch}")
        for key in ("c_eps", "c_j", "c_m"):
            value = getattr(self, key)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        for key, least in (("n_angles", 2), ("k_max", 0), ("triadic_depth", 0),
                           ("seed", 0), ("workers", 1)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{key} must be an integer >= {least}, got {value!r}")

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


def write_json(path, payload) -> None:
    """Write `payload` to `path` as JSON indented by one space, in one write:
    every report, tree dump and certificate. A value JSON cannot hold raises
    TypeError before the file is opened, so the previous file keeps its bytes."""
    text = json.dumps(payload, indent=1)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def content_hash(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
