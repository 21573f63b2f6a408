"""Run configuration: resource caps, defaults, reproducibility seed."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .core import ValidationError
from .oracle import DEFAULT_CELL_CAP

ENV_CAP = "FSLATTICE_CAP"


def read_json(path: str) -> object:
    """Decode the JSON file at `path`; nesting too deep to decode is a ValidationError."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValidationError(f"{path}: JSON nested too deeply to decode") from exc


@dataclass(frozen=True)
class RunConfig:
    cell_cap: int = DEFAULT_CELL_CAP
    ray_depth: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"config {f.name} must be an integer, got {value!r}")
        if self.cell_cap < 1 or self.ray_depth < 0:
            raise ValidationError("caps must be positive")

    @classmethod
    def load(cls, path: Optional[str] = None) -> "RunConfig":
        """Optional JSON config file; FSLATTICE_CAP overrides the cell cap."""
        values: dict = {}
        if path is not None:
            data = read_json(path)
            if not isinstance(data, dict):
                raise ValidationError(f"config must be a JSON object, got {str(data)[:40]}")
            known = {f.name for f in fields(cls)}
            unknown = set(data) - known
            if unknown:
                raise ValidationError(f"unknown config keys: {sorted(unknown)}")
            values.update(data)
        env_cap = os.environ.get(ENV_CAP)
        if env_cap is not None:
            try:
                values["cell_cap"] = int(env_cap)
            except ValueError:
                raise ValidationError(f"{ENV_CAP} must be an integer, got {env_cap!r}") from None
        return cls(**values)
