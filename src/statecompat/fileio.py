"""Instance and report files.

Both formats are JSON with complex numbers spelled as ``[re, im]`` pairs, so
they parse trivially in any language and round-trip bit-exactly at double
precision. An instance file looks like::

    {
      "dim": 2,
      "matrices": [
        {"name": "rho_1", "rows": [[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]]}
      ],
      "tolerances": {"rank_rel": 1e-10, "match_abs": 1e-8}
    }

``tolerances`` is optional, as are the per-matrix names. A report file echoes
the instance it was computed from under ``"instance"``, so every verdict can
be re-derived from the report alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .compat import CompatReport
from .errors import InstanceFormatError
from .linalg import Tolerances
from .scenario import ScenarioResult

_TOL_KEYS = ("rank_rel", "match_abs")


@dataclass(eq=False)
class Instance:
    """Parsed instance file: raw matrices plus optional tolerance overrides."""

    dim: int
    names: list[str]
    matrices: list[np.ndarray]
    tol_overrides: dict[str, float] = field(default_factory=dict)

    def tolerances(self, rank_rel: float | None = None, match_abs: float | None = None) -> Tolerances:
        """Resolve tolerances: explicit arguments beat file overrides beat defaults."""
        merged = {}
        merged.update(self.tol_overrides)
        if rank_rel is not None:
            merged["rank_rel"] = rank_rel
        if match_abs is not None:
            merged["match_abs"] = match_abs
        return Tolerances(**merged)


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _parse_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise InstanceFormatError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InstanceFormatError(f"{where}: row {i} must hold {dim} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise InstanceFormatError(
                    f"{where}: entry ({i},{j}) must be a [re, im] pair"
                )
            out[i, j] = complex(
                _as_number(pair[0], f"{where} ({i},{j}) re"),
                _as_number(pair[1], f"{where} ({i},{j}) im"),
            )
    return out


def parse_instance(obj) -> Instance:
    """Parse a decoded JSON object into an :class:`Instance`."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    if "dim" not in obj or not isinstance(obj["dim"], int) or obj["dim"] < 1:
        raise InstanceFormatError('"dim" must be a positive integer')
    dim = obj["dim"]
    raw_matrices = obj.get("matrices")
    if not isinstance(raw_matrices, list) or not raw_matrices:
        raise InstanceFormatError('"matrices" must be a nonempty list')
    names, matrices = [], []
    for idx, entry in enumerate(raw_matrices):
        if not isinstance(entry, dict) or "rows" not in entry:
            raise InstanceFormatError(f'matrix {idx}: expected an object with "rows"')
        name = entry.get("name", f"rho_{idx + 1}")
        if not isinstance(name, str) or not name:
            raise InstanceFormatError(f"matrix {idx}: name must be a nonempty string")
        names.append(name)
        matrices.append(_parse_matrix(entry["rows"], dim, f"matrix {name!r}"))
    overrides = {}
    if "tolerances" in obj:
        tols = obj["tolerances"]
        if not isinstance(tols, dict):
            raise InstanceFormatError('"tolerances" must be an object')
        for key, value in tols.items():
            if key not in _TOL_KEYS:
                raise InstanceFormatError(f"unknown tolerance {key!r}")
            overrides[key] = _as_number(value, f"tolerances.{key}")
    return Instance(dim=dim, names=names, matrices=matrices, tol_overrides=overrides)


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    return parse_instance(obj)


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]


def vector_to_pairs(v: np.ndarray) -> list:
    return [[float(x.real), float(x.imag)] for x in np.asarray(v)]


def instance_payload(instance: Instance) -> dict:
    payload = {
        "dim": instance.dim,
        "matrices": [
            {"name": name, "rows": matrix_to_pairs(matrix)}
            for name, matrix in zip(instance.names, instance.matrices)
        ],
    }
    if instance.tol_overrides:
        payload["tolerances"] = dict(instance.tol_overrides)
    return payload


def report_payload(
    report: CompatReport,
    names: list[str],
    tol: Tolerances,
    instance: Instance,
    scenario: ScenarioResult | None = None,
) -> dict:
    """Assemble the JSON object written by the check and scenario commands."""
    payload = {
        "tolerances": {"rank_rel": tol.rank_rel, "match_abs": tol.match_abs},
        "instance": instance_payload(instance),
        "report": {
            "dim": report.dim,
            "n_matrices": report.n_matrices,
            "names": list(names),
            "compatible": report.compatible,
            "intersection_dim": report.intersection_dim,
            "forbidden_dim": report.forbidden_dim,
            "witness": None if report.witness is None else vector_to_pairs(report.witness),
            "pairwise_commute": np.asarray(report.pairwise_commute).tolist(),
            "commute_residual": np.asarray(report.commute_residual).tolist(),
            "pairwise_product_nonzero": np.asarray(report.pairwise_product_nonzero).tolist(),
            "product_overlap": np.asarray(report.product_overlap).tolist(),
            "marginal": report.marginal,
            "notes": list(report.notes),
        },
    }
    if scenario is not None:
        payload["scenario"] = {
            "joint_zero_outcome_probability": scenario.joint_zero_probability,
            "observers": [
                {"name": name, "recovery_distance": rec.distance}
                for name, rec in zip(names, scenario.recoveries)
            ],
            "success": scenario.success,
        }
    return payload


def dump_payload(payload: dict, fh) -> None:
    json.dump(payload, fh, indent=2, sort_keys=True)
    fh.write("\n")
