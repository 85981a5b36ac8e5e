import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gapguide import cli
from gapguide.cross_section import Interval
from gapguide.eigen import band_structure, interior_eigs
from gapguide.errors import IterationError, ValidationError
from gapguide.fields_io import read_json
from gapguide.grids import GridSpec
from gapguide.media import SampledEpsilon
from gapguide.xsection import solve_nu_scalar

ROOT = Path(__file__).resolve().parents[1]
GAP = [1.50647, 5.24793]

MEDIUM = {
    "lattice": [0.25, 1.0],
    "background": 1.0,
    "inclusions": [{"kind": "box", "lo": [-0.125, -0.1875],
                    "hi": [0.125, 0.1875], "eps": 9.0}],
    "defect": {"cross_section": {"kind": "interval", "half_width": 1.0},
               "l": 1.5, "eps": 12.0},
}

GRID = {"shape": [4, 255], "spacing": [0.0625, 0.03125], "origin": [0.0, -4.0]}


def _cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _defect_cfg(tmp_path, **extra):
    base = {"schema": 1, "medium": MEDIUM, "grid": GRID, "gap": GAP,
            "k1_samples": [4.5, 5.0], "count": 16, "delta": 0.25}
    base.update(extra)
    return _cfg(tmp_path, "defect.json", base)


def test_check_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, "check.json",
               {"schema": 1, "l": 1.0, "eps": 12.0, "gap_width": 3.0,
                "nu": 14.682})
    rc = cli.main(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "condition satisfied, margin 6.636" in capsys.readouterr().out
    doc = read_json(tmp_path / "out" / "check.json")
    assert doc["passed"] and doc["margin"] == pytest.approx(6.636)
    assert "config_hash" in doc["provenance"]
    assert "blas" in doc["provenance"]


def test_nu_command_scalar_interval(tmp_path, capsys):
    cfg = _cfg(tmp_path, "nu.json",
               {"schema": 1, "kind": "scalar",
                "cross_section": {"kind": "interval", "half_width": 1.0},
                "h_values": [2 / 64]})
    rc = cli.main(["nu", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nu"] == pytest.approx(np.pi**2 / 4, rel=5e-3)


def test_config_errors_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["check", "--config", missing, "--out", str(tmp_path)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["check", "--config", str(bad), "--out", str(tmp_path)]) == 2
    incomplete = _cfg(tmp_path, "inc.json", {"schema": 1, "l": 1.0})
    assert cli.main(["check", "--config", incomplete,
                     "--out", str(tmp_path)]) == 2
    wrong_schema = _cfg(tmp_path, "ws.json", {"schema": 99, "l": 1.0})
    assert cli.main(["check", "--config", wrong_schema,
                     "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # a key the command does not read is rejected, not silently defaulted
    typo = _defect_cfg(tmp_path, k1_sample=[5.0], loc_fraction=0.6)
    assert cli.main(["defect", "--config", typo, "--out", str(tmp_path)]) == 2
    assert "['k1_sample', 'loc_fraction']" in capsys.readouterr().err


def test_unknown_command_and_missing_config_exit_2(tmp_path, capsys):
    assert cli.main(["bogus"]) == 2
    assert cli.main(["nu", "--out", str(tmp_path)]) == 2


def test_residual_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, "res.json",
               {"schema": 1, "l": 1.0, "eps": 12.0, "mu": 2.5, "delta": 6.5,
                "cross_section": {"kind": "disk", "radius": 1.0},
                "h": 2 / 48, "rho": 0.15})
    rc = cli.main(["residual", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passes"] and out["n"] >= 1
    assert out["residual_sq"] < out["threshold"]
    # a budget below the transverse floor is detected, not ground through
    tight = _cfg(tmp_path, "res2.json",
                 {"schema": 1, "l": 1.0, "eps": 12.0, "mu": 2.5, "delta": 0.5,
                  "cross_section": {"kind": "disk", "radius": 1.0},
                  "h": 2 / 48, "rho": 0.15})
    assert cli.main(["residual", "--config", tight,
                     "--out", str(tmp_path / "out2")]) == 2


def test_bands_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, "bands.json", {
        "schema": 1,
        "medium": {"lattice": [1.0], "inclusions": [
            {"kind": "box", "lo": [-0.1875], "hi": [0.1875], "eps": 9.0}]},
        "grid": {"shape": [256], "spacing": [1 / 256], "origin": [-0.5]},
        "k_samples": {"start": 0.0, "stop": np.pi, "num": 17},
        "bands": 6, "min_gap_width": 0.5})
    out, again = tmp_path / "out", tmp_path / "again"
    rc = cli.main(["bands", "--config", cfg, "--out", str(out)])
    assert rc == 0
    gaps = json.loads(capsys.readouterr().out)["gaps"]
    assert len(gaps) >= 1
    assert gaps[0][0] == pytest.approx(GAP[0], rel=0.02)
    assert gaps[0][1] == pytest.approx(GAP[1], rel=0.02)
    assert (out / "plot_bands.py").is_file()
    assert cli.main(["bands", "--config", cfg, "--out", str(again)]) == 0
    for name in ("bands.csv", "gaps.json"):
        assert (out / name).read_bytes() == (again / name).read_bytes()
    blas = read_json(out / "gaps.json")["provenance"]["blas"]
    assert set(blas) == {"libraries", "solve_threads"}


def test_defect_command_is_deterministic(tmp_path, capsys):
    cfg = _defect_cfg(tmp_path, dump_fields=1)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert cli.main(["defect", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["defect", "--config", cfg, "--out", str(out2)]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert json.loads(stdout[0])["modes"] >= 2
    assert (out1 / "modes.csv").read_bytes() == (out2 / "modes.csv").read_bytes()
    assert (out1 / "mode_000.bin").read_bytes() == (out2 / "mode_000.bin").read_bytes()
    assert read_json(out1 / "mode_000.json")["staggering"] == "cell-centred"
    cov = read_json(out1 / "coverage.json")
    assert len(cov["points"]) == 9


def test_decay_command_and_numerical_failure(tmp_path, capsys):
    ok = _defect_cfg(tmp_path, step=0.25, d_min=1.5, d_max=2.5)
    out = tmp_path / "out"
    assert cli.main(["decay", "--config", ok, "--out", str(out)]) == 0
    doc = read_json(out / "decay_fits.json")
    assert len(doc["fits"]) >= 2
    assert all(f["rate"] > 0 for f in doc["fits"])
    assert (out / "profile_000.csv").is_file()
    # no profiles dumped: no plot script pointing at a missing CSV
    quiet = _defect_cfg(tmp_path, step=0.25, d_min=1.5, d_max=2.5,
                        dump_profiles=0)
    out0 = tmp_path / "o0"
    assert cli.main(["decay", "--config", quiet, "--out", str(out0)]) == 0
    assert (not (out0 / "plot_decay.py").exists()
            or (out0 / "profile_000.csv").is_file())
    # empty fit window after the guards: numerical failure, exit 3
    bad = _defect_cfg(tmp_path, step=0.25, d_min=4.0, d_max=4.4)
    assert cli.main(["decay", "--config", bad, "--out", str(tmp_path / "o3")]) == 3


def test_arpack_errors_exit_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(3)

    monkeypatch.setattr(spla, "eigsh", fail)
    monkeypatch.setattr(spla, "eigs", fail)
    A = sp.diags(np.arange(1.0, 65.0))
    with pytest.raises(IterationError, match="Lanczos at shift"):
        interior_eigs(A, (10.5, 20.5), count=10)
    # a window above count raises before Lanczos could fail
    with pytest.raises(ValidationError, match="holds 10"):
        interior_eigs(A, (10.5, 20.5), count=4)
    grid = GridSpec((64,), (1 / 64,))
    with pytest.raises(IterationError):
        band_structure(SampledEpsilon(grid, np.ones(64)), [0.0], bands=6)
    with pytest.raises(IterationError):
        solve_nu_scalar(Interval(1.0), h=2 / 64)
    # a box shorter than the axial period: the medium varies along x1, so
    # defect solves the full operator by Lanczos
    varied = dict(MEDIUM, inclusions=[dict(MEDIUM["inclusions"][0],
                                           lo=[-0.0625, -0.1875],
                                           hi=[0.0625, 0.1875])])
    cfg = _defect_cfg(tmp_path, medium=varied,
                      grid=dict(GRID, shape=[8, 255], spacing=[1 / 32, 1 / 32]))
    assert cli.main(["defect", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert "Lanczos at shift" in capsys.readouterr().err


def test_tridiagonal_eigensolve_errors_exit_3(tmp_path, capsys, monkeypatch):
    # the layered guide is constant along x1: its blocks are solved by
    # LAPACK bisection and inverse iteration, whose failure exits 3
    def fail(*args, **kwargs):
        raise dla.LinAlgError("stein (eigh_tridiagonal) 1 eigenvectors "
                              "failed to converge")

    monkeypatch.setattr(dla, "eigh_tridiagonal", fail)
    cfg = _defect_cfg(tmp_path)
    assert cli.main(["defect", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
    assert "failed to converge" in capsys.readouterr().err


def test_window_above_count_exits_2(tmp_path, capsys):
    cfg = _defect_cfg(tmp_path, count=1)
    out = tmp_path / "out"
    assert cli.main(["defect", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    m = re.search(r"config error: window .* holds (\d+) eigenvalues, "
                  r"more than count = 1", err)
    assert m and int(m.group(1)) > 1
    assert not (out / "modes.csv").exists()


def test_sweep_command(tmp_path, capsys):
    cfg = _cfg(tmp_path, "sweep.json", {
        "schema": 1, "medium": MEDIUM, "grid": GRID, "gap": GAP,
        "nu": 14.682, "l_values": [1.0, 1.5], "eps_values": [12.0],
        "k1_samples": [5.0], "count": 8, "delta": 0.25})
    maps = []
    for threads in ("2", "1"):
        out = tmp_path / f"out{threads}"
        rc = cli.main(["sweep", "--config", cfg, "--out", str(out),
                       "--threads", threads])
        assert rc == 0
        maps.append((out / "existence_map.csv").read_bytes())
    lines = maps[0].decode().splitlines()
    assert lines[0].startswith("l,eps,margin")
    assert len(lines) == 3
    # the cells run in order: --threads is accepted by sweep, read by nothing
    assert maps[0] == maps[1]
    assert cli.main(["defect", "--config", _defect_cfg(tmp_path),
                     "--out", str(tmp_path / "d"), "--threads", "2"]) == 2


def test_benchmark_command_lines_parse(tmp_path, monkeypatch):
    # every guide-2d benchmark command line and config is accepted as it
    # stands, so a retired flag or key cannot fail its operations
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    guide = workloads.Guide2D(seed=1, out=tmp_path)
    assert set(guide.argv) == set(workloads.Guide2D.COMMANDS)
    for argv in guide.argv.values():
        args = cli.build_parser().parse_args(argv)
        if args.config:
            cli._load_config(args.config, args.command)


def test_report_command_idempotent(tmp_path, capsys):
    cfg = _cfg(tmp_path, "check.json",
               {"schema": 1, "l": 1.0, "eps": 12.0, "gap_width": 3.0,
                "nu": 14.682})
    out = tmp_path / "out"
    assert cli.main(["check", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    text = (out / "summary.md").read_text()
    assert "Existence condition" in text and "satisfied" in text
    data1 = (out / "summary.md").read_bytes()
    assert cli.main(["report", "--out", str(out)]) == 0
    assert (out / "summary.md").read_bytes() == data1
    empty = tmp_path / "empty"
    assert cli.main(["report", "--out", str(empty)]) == 0
    assert "no artifacts" in (empty / "summary.md").read_text()
