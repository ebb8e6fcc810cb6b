"""Golden records: canonical, bitwise-comparable outputs of one unit of work.

A workload unit returns a *record*: a list of operations (Table-II cells,
deploy verifications, surrogate kinds) plus unit-level totals.  Every float
is stored as ``float.hex`` so that equality of two canonical records is
bitwise equality of the numbers behind them.

``golden/<workload>.json`` holds the full record at :data:`GOLDEN_SEED`
and the record digest at every seed in :data:`DIGEST_SEEDS`, together
with the arithmetic fingerprint (numpy version, BLAS kernel family, SIMD
dispatch) the goldens were recorded on.  Results are only bitwise
reproducible on the same arithmetic, so a run on another fingerprint
skips the golden comparison (and says so) but still checks that every
unit of the run produced the same digest.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import platform
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Seed whose full record is stored (the benchmark's default seed).
GOLDEN_SEED = 1

#: Seeds whose record digest is stored.
DIGEST_SEEDS = tuple(range(32))


def canonical(value):
    """``value`` with floats as ``float.hex`` strings and containers as lists/dicts."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    raise TypeError(f"cannot canonicalize {type(value).__name__}")


def digest(record) -> str:
    """SHA-256 of a canonical record."""
    blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def diff(expected, actual, path: str = "") -> List[str]:
    """Paths (with both values) at which two canonical records differ."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else key
            if key not in expected or key not in actual:
                out.append(f"{sub}: only in {'actual' if key in actual else 'golden'}")
            else:
                out.extend(diff(expected[key], actual[key], sub))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        out = [f"{path}: length {len(expected)} != {len(actual)}"] if len(expected) != len(actual) else []
        for index, (a, b) in enumerate(zip(expected, actual)):
            out.extend(diff(a, b, f"{path}[{index}]"))
        return out
    return [] if expected == actual else [f"{path}: golden {expected!r} != actual {actual!r}"]


def failed_ops(expected, actual) -> int:
    """Operations of ``actual`` that differ from ``expected`` (totals count as one)."""
    ops_e, ops_a = expected["ops"], actual["ops"]
    failed = sum(1 for a, b in zip(ops_e, ops_a) if a != b) + abs(len(ops_e) - len(ops_a))
    if expected["totals"] != actual["totals"]:
        failed += 1
    return min(failed, len(ops_a)) if ops_a else failed


def fingerprint() -> Dict[str, object]:
    """What bitwise reproducibility depends on, as far as it can be read here."""
    simd: List[str] = []
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        simd = sorted(name for name in __cpu_dispatch__ if __cpu_features__.get(name))
    except ImportError:
        pass
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "blas_core": _blas_core(),
        "simd": simd,
    }


def _blas_core() -> str:
    """The OpenBLAS kernel family numpy runs on (``"unknown"`` if not found)."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_char_p
                return func().decode()
    return "unknown"


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load(workload: str) -> Optional[dict]:
    path = golden_path(workload)
    return json.loads(path.read_text()) if path.exists() else None


def save(workload: str, golden: dict) -> Path:
    path = golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return path


def check(workload: str, seed: int, record, golden: Optional[dict] = None):
    """Compare one canonical record against the stored goldens.

    Returns ``(failed, notes)``: the number of failed operations of this
    record (0 when no golden applies) and human-readable notes.
    """
    golden = load(workload) if golden is None else golden
    if golden is None:
        return 0, [f"{workload}: no golden recorded"]
    here = fingerprint()
    if golden["fingerprint"] != here:
        return 0, [f"{workload}: golden skipped, recorded on {golden['fingerprint']}, running on {here}"]
    if seed == golden["seed"]:
        problems = diff(golden["record"], record)
        return failed_ops(golden["record"], record), [f"{workload}: {p}" for p in problems[:10]]
    expected = golden["digests"].get(str(seed))
    if expected is None:
        return 0, [f"{workload}: no golden digest for seed {seed}"]
    if expected != digest(record):
        return len(record["ops"]), [f"{workload}: seed {seed} digest {digest(record)} != golden {expected}"]
    return 0, []
