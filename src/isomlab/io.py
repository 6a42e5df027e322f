"""File formats shared by the CLI and external tools.

Complex numbers are always two-element [re, im] arrays, never strings, and
matrices are nested lists of such pairs; double precision round-trips
losslessly through repr-based JSON floats.

System files carry either the irregular data (u, A) or a "fuchsian" block
(poles, residues), or both.  An irregular system is dY/dz = (Lambda + A/z) Y:
a "higher" block of pole coefficients A_2, A_3, ... is read only when every
entry is zero, and refused otherwise.  Path files carry u-space waypoints.

CSV tables have a header row; their floats are written as repr, which
round-trips.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from .errors import InputFormatError
from .formal import IrregularSystem
from .fuchsian import FuchsianSystem
from .isoflow import UPath


def complex_from_pair(obj, where: str) -> complex:
    """[re, im] as a complex; booleans and numbers that no finite float holds
    are refused."""
    try:
        ok = isinstance(obj, (list, tuple)) and len(obj) == 2 and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
            for x in obj)
    except OverflowError:  # an integer beyond every float
        ok = False
    if not ok:
        raise InputFormatError(f"{where}: expected [re, im] of finite numbers, got {obj!r}")
    return complex(obj[0], obj[1])


def cvec_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(f"{where}: expected a non-empty list of [re, im] pairs")
    return np.array([complex_from_pair(x, f"{where}[{k}]") for k, x in enumerate(obj)])


def cmat_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(f"{where}: expected a matrix (list of rows)")
    rows = [cvec_from_json(row, f"{where}[{k}]") for k, row in enumerate(obj)]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise InputFormatError(f"{where}: ragged rows")
    return np.array(rows)


def cmats_from_json(obj, where: str) -> tuple[np.ndarray, ...]:
    if not isinstance(obj, list):
        raise InputFormatError(f"{where}: expected a list of matrices, got {obj!r}")
    return tuple(cmat_from_json(M, f"{where}[{k}]") for k, M in enumerate(obj))


def pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cvec_to_json(v) -> list:
    return [pair(z) for z in np.asarray(v).reshape(-1)]


def cmat_to_json(M) -> list:
    M = np.asarray(M)
    return [[pair(z) for z in row] for row in M]


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the header, then one line per row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([repr(float(x)) if isinstance(x, float) else x for x in row] for row in rows)


def _read_json(path, kind: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"cannot read {kind} file {path}: {exc}") from exc


def load_system(path) -> dict:
    """Parse a system file into {"irregular": ..., "fuchsian": ...} parts."""
    doc = _read_json(path, "system")
    if not isinstance(doc, dict):
        raise InputFormatError("system file must hold a JSON object")
    out: dict = {"irregular": None, "fuchsian": None}
    if "u" in doc or "A" in doc:
        if "u" not in doc or "A" not in doc:
            raise InputFormatError("irregular system needs both 'u' and 'A'")
        u = cvec_from_json(doc["u"], "u")
        A = cmat_from_json(doc["A"], "A")
        n = doc.get("n", len(u))
        if not isinstance(n, int) or isinstance(n, bool):
            raise InputFormatError(f"n: expected an integer, got {n!r}")
        if n != len(u):
            raise InputFormatError(f"n = {n} disagrees with len(u) = {len(u)}")
        if A.shape != (len(u), len(u)):
            raise InputFormatError(f"A has shape {A.shape}, expected {(len(u),) * 2}")
        for k, H in enumerate(cmats_from_json(doc.get("higher", []), "higher")):
            if H.shape != A.shape:
                raise InputFormatError(f"higher[{k}] has shape {H.shape}, expected {A.shape}")
            if np.any(H):
                raise InputFormatError(f"higher[{k}] is nonzero: isomlab does not support "
                                       "higher poles, only dY/dz = (Lambda + A/z) Y")
        out["irregular"] = IrregularSystem(u=u, A=A)
    if "fuchsian" in doc:
        blk = doc["fuchsian"]
        if not isinstance(blk, dict) or "poles" not in blk or "residues" not in blk:
            raise InputFormatError("'fuchsian' block needs 'poles' and 'residues'")
        poles = cvec_from_json(blk["poles"], "fuchsian.poles")
        residues = cmats_from_json(blk["residues"], "fuchsian.residues")
        try:
            out["fuchsian"] = FuchsianSystem(
                poles=poles, residues=residues, zero_sum_tol=1e-10
            )
        except ValueError as exc:
            raise InputFormatError(f"fuchsian: {exc}") from exc
    if out["irregular"] is None and out["fuchsian"] is None:
        raise InputFormatError("system file defines neither 'u'/'A' nor 'fuchsian'")
    return out


def load_upath(path) -> UPath:
    doc = _read_json(path, "path")
    if not isinstance(doc, dict) or "waypoints" not in doc:
        raise InputFormatError("path file needs a 'waypoints' list")
    wps = doc["waypoints"]
    if not isinstance(wps, list) or len(wps) < 1:
        raise InputFormatError("waypoints must be a non-empty list")
    pts = tuple(cvec_from_json(w, f"waypoints[{k}]") for k, w in enumerate(wps))
    if len(pts) == 1:
        raise InputFormatError("a path needs at least two waypoints")
    return UPath(waypoints=pts)
