"""Report assembly, serialization and schema validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import jsonschema


@dataclass
class Report:
    suite: str
    parameters: dict
    seed: int
    tolerance: float
    max_residual: float
    counts: dict
    wall_s: float
    negative_control: bool = False
    cases: list | None = None
    extras: dict = field(default_factory=dict)
    worst_case: int | None = None  # index of the largest (or first NaN) case residual

    NEGATIVE_CONTROL_FLOOR = 1e-3

    @property
    def passed(self) -> bool:
        if not math.isfinite(self.max_residual):
            return False
        if self.negative_control:
            return self.max_residual > max(self.tolerance, self.NEGATIVE_CONTROL_FLOOR)
        return self.max_residual < self.tolerance

    def to_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "parameters": self.parameters,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "pass": self.passed,
            "negative_control": self.negative_control,
            "counts": self.counts,
            "timing": {"wall_s": self.wall_s},
        }
        if self.worst_case is not None:
            out["worst_case"] = self.worst_case
        if self.cases is not None:
            out["cases"] = [{"case": int(c), "residual": float(r)} for c, r in self.cases]
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), sort_keys=True, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        return text

    def to_csv(self, path: str):
        """Per-case residuals as CSV; requires the run to have kept cases."""
        import csv

        if self.cases is None:
            raise ValueError("run the suite with keep_cases to export per-case residuals")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["case", "residual"])
            for c, r in self.cases:
                writer.writerow([int(c), repr(float(r))])


def load_schema() -> dict:
    with resources.files("qlattice.harness").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _validator():
    """A validator of the report schema, checked against its metaschema once."""
    schema = load_schema()
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def validate_report(data: dict):
    """Raise the jsonschema.ValidationError that jsonschema.validate raises
    (the best match of the errors), without checking the schema again."""
    error = jsonschema.exceptions.best_match(_validator().iter_errors(data))
    if error is not None:
        raise error
