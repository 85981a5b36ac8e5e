"""Deterministic artifact I/O: field dumps, CSV tables, JSON records.

Everything written here is a pure function of its inputs (sorted keys, fixed
float formatting, no timestamps, no paths), so re-running a pipeline with
the same config reproduces artifacts byte-for-byte, in any directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .grids import GridSpec

__all__ = ["config_hash", "write_json", "read_json", "write_csv",
           "write_field", "band_csv", "modes_csv",
           "profile_csv", "emit_plot_script"]


def config_hash(obj) -> str:
    """Short stable hash of a JSON-serializable configuration."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _nan_to_none(obj):
    """obj with every NaN float, however deeply nested, replaced by None."""
    if isinstance(obj, float):
        return None if np.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _nan_to_none(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_to_none(v) for v in obj]
    return obj


def write_json(path, obj) -> Path:
    """Strict JSON (RFC 8259): a NaN is written as null, and an infinity
    raises ValueError."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(_nan_to_none(obj), indent=2, sort_keys=True,
                      allow_nan=False)
    path.write_text(text + "\n")
    return path


def read_json(path):
    return json.loads(Path(path).read_text())


def write_csv(path, header, rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(x) for x in row])
    return path


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def write_field(path_base, values: np.ndarray, grid: GridSpec,
                meta: dict) -> Path:
    """Flat binary dump plus JSON header: shape, dtype, the grid's shape,
    spacing and origin, and `meta` (the CLI's mode dumps add lambda,
    bloch_k1 and staggering "cell-centred": value i sits at the cell
    centre origin + (i + 1/2) h)."""
    base = Path(path_base)
    base.parent.mkdir(parents=True, exist_ok=True)
    arr = np.ascontiguousarray(values)
    header = {"shape": list(arr.shape), "dtype": str(arr.dtype),
              "grid_shape": list(grid.shape),
              "spacing": list(grid.spacing), "origin": list(grid.origin)}
    header.update(meta)
    base.with_suffix(".bin").write_bytes(arr.tobytes())
    write_json(base.with_suffix(".json"), header)
    return base.with_suffix(".bin")


def band_csv(bt, path) -> Path:
    """BandTable as (k, band index, lambda) rows."""
    return write_csv(path, ["k", "band", "lambda"],
                     ((k, j, float(lam))
                      for k, vals in zip(bt.k_samples, bt.eigenvalues)
                      for j, lam in enumerate(vals)))


def modes_csv(modes, path) -> Path:
    return write_csv(path, ["k1", "lambda", "residual", "localization"],
                     ((m.k1, m.lam, m.residual,
                       m.localization if m.localization is not None else "")
                      for m in modes))


def profile_csv(prof, path, d_lo: float, d_hi: float) -> Path:
    """DecayProfile as (distance, norm, log norm, in-window flag) rows, the
    fit window being [d_lo, d_hi]."""
    return write_csv(path, ["dist", "norm", "log_norm", "in_window"],
                     ((float(d), float(n),
                       float(np.log(n)) if n > 0 else np.nan,
                       int(d_lo <= d <= d_hi and n > 0))
                      for d, n in zip(prof.distances, prof.norms)))


# each script reads its CSV, or the path given as its argument, from its
# own directory and saves its figure there
_PLOT = """\
import csv, sys
from pathlib import Path
import matplotlib.pyplot as plt

here = Path(__file__).parent
with open(sys.argv[1] if len(sys.argv) > 1 else here / {csv!r}) as fh:
    rows = list(csv.DictReader(fh))
{body}plt.savefig(here / {figure!r}, dpi=150)
"""
_PLOTS = {
    "bands": ("bands.csv", "bands.png", """\
by_band = {}
for row in rows:
    by_band.setdefault(int(row["band"]), []).append(
        (float(row["k"]), float(row["lambda"])))
for band, pts in sorted(by_band.items()):
    plt.plot(*zip(*sorted(pts)), "o-", ms=3, label=f"band {band}")
plt.xlabel("Bloch momentum"); plt.ylabel("eigenvalue"); plt.legend()
"""),
    "decay": ("profile_000.csv", "decay.png", """\
dist = [float(row["dist"]) for row in rows]
norm = [float(row["norm"]) for row in rows]
fit = [i for i, row in enumerate(rows) if int(row["in_window"])]
plt.semilogy(dist, norm, "o-", ms=3)
plt.semilogy([dist[i] for i in fit], [norm[i] for i in fit], "rs", ms=4,
             label="fit window")
plt.xlabel("distance to strip"); plt.ylabel("windowed norm"); plt.legend()
"""),
    "map": ("existence_map.csv", "existence_map.png", """\
sc = plt.scatter([float(row["l"]) for row in rows],
                 [float(row["eps"]) for row in rows],
                 c=[float(row["margin"]) for row in rows],
                 cmap="RdYlGn", s=120, marker="s")
plt.colorbar(sc, label="condition margin")
plt.xlabel("l"); plt.ylabel("eps")
"""),
}


def emit_plot_script(path, kind: str) -> Path:
    """Write a standalone matplotlib script for a CSV artifact beside it."""
    if kind not in _PLOTS:
        raise ValidationError(f"unknown plot kind {kind!r}")
    csv_name, figure, body = _PLOTS[kind]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_PLOT.format(csv=csv_name, figure=figure, body=body))
    return path
