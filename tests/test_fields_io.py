import json
import re

import numpy as np
import pytest

from gapguide import fields_io as io
from gapguide.eigen import BandTable
from gapguide.decay import DecayProfile, fit_decay
from gapguide.errors import ValidationError
from gapguide.grids import GridSpec


def test_config_hash_is_order_insensitive_and_content_sensitive():
    a = {"x": 1, "y": [1, 2], "z": {"a": True}}
    b = {"z": {"a": True}, "y": [1, 2], "x": 1}
    assert io.config_hash(a) == io.config_hash(b)
    assert io.config_hash(a) != io.config_hash({**a, "x": 2})
    assert len(io.config_hash(a)) == 12


def test_json_round_trip(tmp_path):
    doc = {"b": [1.5, 2.25], "a": {"nested": "yes"}}
    p = io.write_json(tmp_path / "sub" / "doc.json", doc)
    assert io.read_json(p) == doc
    # deterministic bytes on rewrite
    data1 = p.read_bytes()
    io.write_json(p, doc)
    assert p.read_bytes() == data1


def _strict_parse(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def test_json_is_strict(tmp_path):
    # a flat decay profile fits r^2 = NaN; its record is written as null
    flat = DecayProfile(distances=np.arange(0.0, 3.0, 0.25),
                        norms=np.full(12, 0.7), strip_radius=0.5,
                        extent=3.0)
    fit = fit_decay(flat, d_min=0.0, d_max=3.0)
    assert np.isnan(fit.r2)
    doc = {"fit": fit.record(), "values": (1.5, np.float64("nan")),
           "nested": [{"x": float("nan")}]}
    p = io.write_json(tmp_path / "strict.json", doc)
    got = _strict_parse(p.read_text())
    assert got["fit"]["r2"] is None
    assert got["fit"]["rate"] == fit.rate
    assert got["values"] == [1.5, None] and got["nested"] == [{"x": None}]
    assert io.read_json(p) == got
    with pytest.raises(ValueError):
        io.write_json(tmp_path / "inf.json", {"x": float("inf")})


def _read_field(path_base):
    """Inverse of write_field: (values, header), refusing a binary dump
    whose byte count the header does not state."""
    header = io.read_json(path_base.with_suffix(".json"))
    raw = path_base.with_suffix(".bin").read_bytes()
    dtype = np.dtype(header["dtype"])
    expect = int(np.prod(header["shape"])) * dtype.itemsize
    if len(raw) != expect:
        raise ValueError(
            f"field dump has {len(raw)} bytes, header says {expect}")
    return np.frombuffer(raw, dtype=dtype).reshape(header["shape"]), header


def test_field_round_trip(tmp_path):
    grid = GridSpec((3, 4), (0.5, 0.25), (-1.0, 0.0))
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    io.write_field(tmp_path / "mode", vals, grid,
                   meta={"lambda": 2.5, "staggering": "cell-centred"})
    back, header = _read_field(tmp_path / "mode")
    assert np.array_equal(back, vals)
    assert header["lambda"] == 2.5
    assert header["grid_shape"] == [3, 4]
    assert header["spacing"] == [0.5, 0.25]
    assert header["staggering"] == "cell-centred"


@pytest.mark.parametrize("cut", [8, 1])
def test_truncated_field_dump_raises(tmp_path, cut):
    # one float64 entry or one byte short of the 4 x 4 the header states
    grid = GridSpec((4, 4), (0.25, 0.25))
    bin_path = io.write_field(tmp_path / "mode", np.ones((4, 4)), grid, {})
    bin_path.write_bytes(bin_path.read_bytes()[:-cut])
    with pytest.raises(ValueError, match="header says 128"):
        _read_field(tmp_path / "mode")


def test_csv_writing_is_deterministic(tmp_path):
    rows = [(0.1, 2, "x"), (1 / 3, 5, "y")]
    p = io.write_csv(tmp_path / "t.csv", ["a", "b", "c"], rows)
    data1 = p.read_bytes()
    io.write_csv(p, ["a", "b", "c"], rows)
    assert p.read_bytes() == data1
    text = p.read_text()
    assert text.splitlines()[0] == "a,b,c"
    assert "0.333333333333" in text


def test_band_and_profile_csv(tmp_path):
    bt = BandTable(k_samples=(0.0, 0.5),
                   eigenvalues=(np.array([1.0, 2.0]), np.array([1.5, 2.5])))
    p = io.band_csv(bt, tmp_path / "bands.csv")
    lines = p.read_text().splitlines()
    assert lines[0] == "k,band,lambda"
    assert len(lines) == 5
    prof = DecayProfile(distances=np.array([0.0, 1.0]),
                        norms=np.array([1.0, 0.1]), strip_radius=0.5,
                        extent=2.0)
    q = io.profile_csv(prof, tmp_path / "prof.csv", 0.5, 1.5)
    rows = q.read_text().splitlines()
    assert rows[0] == "dist,norm,log_norm,in_window"
    assert rows[1].endswith(",0")      # d=0 outside the fit window
    assert rows[2].endswith(",1")


def test_emit_plot_script(tmp_path):
    # the script names its CSV and figure without a directory: it finds
    # them beside itself, wherever it was written
    p = io.emit_plot_script(tmp_path / "plot.py", "bands")
    text = p.read_text()
    assert re.findall(r"'([^']*\.(?:csv|png))'", text) == [
        "bands.csv", "bands.png"]
    assert str(tmp_path) not in text
    compile(text, str(p), "exec")      # script must at least parse
    with pytest.raises(ValidationError):
        io.emit_plot_script(tmp_path / "x.py", "nope")
