import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as dla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from gapguide import cli, xsection
from gapguide.cross_section import Box
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


DISK = {"kind": "disk", "radius": 1.0}
BULK = {"medium": {"lattice": [1.0], "inclusions": [
    {"kind": "box", "lo": [-0.1875], "hi": [0.1875], "eps": 9.0}]},
    "grid": {"shape": [64], "spacing": [1 / 64], "origin": [-0.5]},
    "k_samples": {"start": 0.0, "stop": np.pi, "num": 9}}
GUIDE = {"medium": MEDIUM, "grid": GRID, "gap": GAP, "k1_samples": [5.0],
         "count": 16, "delta": 0.25}
# per command, a config that would run to its solve and every key it reads
RUNS = {
    "nu": ({"cross_section": DISK, "h": 2 / 48},
           ("cross_section", "kind", "h", "h_values")),
    "check": ({"l": 2.0, "eps": 12.0, "gap": GAP, "cross_section": DISK,
               "h": 2 / 48},
              ("l", "eps", "gap", "gap_width", "nu", "cross_section", "h")),
    "residual": ({"l": 1.0, "eps": 12.0, "mu": 2.5, "delta": 6.5, "n": 2,
                  "cross_section": DISK, "h": 2 / 48, "rho": 0.15,
                  "quadrature": True},
                 ("l", "eps", "mu", "delta", "n", "cross_section", "h", "rho",
                  "quadrature")),
    "bands": (BULK, ("medium", "grid", "k_samples", "bands", "min_gap_width")),
    "defect": (GUIDE, ("medium", "grid", "gap", "k1_samples", "delta",
                       "count", "dump_fields")),
    "decay": (dict(GUIDE, step=0.25, d_min=1.0),
              ("medium", "grid", "gap", "k1_samples", "delta", "count",
               "step", "d_min", "d_max", "dump_profiles")),
    "sweep": (dict(GUIDE, nu=14.682, l_values=[1.5], eps_values=[12.0]),
              ("medium", "grid", "gap", "k1_samples", "delta", "count", "nu",
               "l_values", "eps_values")),
}
# keys a config holds in place of another: dropped while that one is tested
IN_PLACE = {"gap_width": ("gap",), "nu": ("cross_section", "h"),
            "h_values": ("h",)}
# per key with a range, a value outside it: a length that is not
# positive, a negative count, a d_max not above the run's d_min; a list's
# bad entry comes after a good one, so a command that reads the list as
# it runs would solve before it met it
OUT_OF_RANGE = {"l": -1, "eps": 0, "mu": -2.5, "delta": -8, "n": 0,
                "h": -0.02, "h_values": [0.03125, -0.02], "step": 0,
                "l_values": [1.5, -1.5], "eps_values": [12.0, 0],
                "count": -1, "d_max": 0.5}


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
    # each grid states which path its eigensolve took: the even class is
    # solved and the odd one ruled out, and the entries of its LU
    (grid,) = read_json(tmp_path / "out" / "nu.json")["per_grid"]
    assert (grid["classes_solved"], grid["classes_ruled_out"]) == (1, 1)
    assert grid["lu_fill"] > 0


def test_nu_command_reports_the_finest_of_two_spacings(tmp_path, capsys):
    # two spacings are too few to extrapolate: the finest grid's estimate is
    # reported, however the spacings are listed
    cfg = _cfg(tmp_path, "nu.json",
               {"schema": 1, "kind": "scalar",
                "cross_section": {"kind": "interval", "half_width": 1.0},
                "h_values": [2 / 64, 2 / 32]})
    assert cli.main(["nu", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = read_json(tmp_path / "nu.json")
    fine, coarse = doc["per_grid"]
    assert (fine["h"], coarse["h"]) == (2 / 64, 2 / 32)
    assert doc["h"] == doc["provenance"]["grid_h"] == 2 / 64
    assert doc["value"] == fine["value"] != coarse["value"]
    assert json.loads(capsys.readouterr().out)["nu"] == fine["value"]


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
    # a config that is not a JSON object is refused, naming its type
    not_object = _cfg(tmp_path, "list.json", [1, 2])
    assert cli.main(["check", "--config", not_object,
                     "--out", str(tmp_path)]) == 2
    assert "config is a list, not a JSON object" in capsys.readouterr().err
    # so is a medium, given inline or as the path of a file
    listed = tmp_path / "medium.json"
    listed.write_text("[1, 2]")
    for medium, kind in (([1, 2], "list"), (5, "int"), (str(listed), "list")):
        cfg = _cfg(tmp_path, "bands.json", dict(BULK, schema=1, medium=medium))
        assert cli.main(["bands", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        assert f"bad 'medium' in config: medium is a {kind}, not a JSON " \
            "object" in capsys.readouterr().err
    # a key the command does not read is rejected, not silently defaulted
    typo = _defect_cfg(tmp_path, k1_sample=[5.0], loc_fraction=0.6)
    assert cli.main(["defect", "--config", typo, "--out", str(tmp_path)]) == 2
    assert "['k1_sample', 'loc_fraction']" in capsys.readouterr().err
    # malformed values are configuration errors too, not tracebacks
    no_hi = dict(MEDIUM, inclusions=[{"kind": "box", "lo": [-0.125, -0.1875],
                                      "eps": 9.0}])
    malformed = [dict(k1_samples={"start": 4.3, "stop": 6.3}),
                 dict(gap=[1.6, 5.0, 6.0]), dict(grid=dict(GRID, shape=4)),
                 dict(medium=no_hi), dict(count="x"), dict(delta=-1),
                 dict(k1_samples=5.0)]
    for extra in malformed:
        cfg = _defect_cfg(tmp_path, **extra)
        assert cli.main(["defect", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
    word = _cfg(tmp_path, "word.json", {"schema": 1, "l": "two", "eps": 12.0,
                                        "gap_width": 3.0, "nu": 14.682})
    assert cli.main(["check", "--config", word, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    words = _defect_cfg(tmp_path, nu=14.682, l_values=["x"], eps_values=[9.0])
    assert cli.main(["sweep", "--config", words, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    # an empty sweep is refused, not reported as a run that found nothing
    no_k1 = {"start": 4, "stop": 5, "num": 0}
    for cmd, extra, message in (
            ("defect", dict(k1_samples=no_k1), "k1 sweep holds no sample"),
            ("decay", dict(k1_samples=[]), "k1 sweep holds no sample"),
            ("sweep", dict(nu=14.682, l_values=[], eps_values=[9.0]),
             "at least one value"),
            ("sweep", dict(nu=14.682, l_values=[1.5], eps_values=[]),
             "at least one value"),
            ("sweep", dict(nu=14.682, l_values=[1.5], eps_values=[9.0],
                           k1_samples=[]), "k1 sweep holds no sample")):
        cfg = _defect_cfg(tmp_path, **extra)
        assert cli.main([cmd, "--config", cfg, "--out",
                         str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
    assert not (tmp_path / "e").exists() or not any((tmp_path / "e").iterdir())
    # nu solves the vector or the scalar constant; a misspelt kind is no
    # silent default, whatever the cross-section
    for section in (DISK,
                    {"kind": "interval", "half_width": 1.0}):
        scaler = _cfg(tmp_path, "kind.json", {"schema": 1, "kind": "scaler",
                                              "cross_section": section,
                                              "h": 2 / 32})
        assert cli.main(["nu", "--config", scaler, "--out", str(tmp_path)]) == 2
        assert "bad 'kind' in config: KeyError('scaler')" \
            in capsys.readouterr().err
    # a band count below 1 or an empty k-path is refused, not sliced into
    # gaps or left to fail in find_gaps
    bulk = dict(BULK, schema=1)
    for extra, message in ((dict(bands=-3), "bands must be at least 1"),
                           (dict(k_samples={"start": 0.0, "stop": np.pi,
                                            "num": 0}), "holds no sample")):
        cfg = _cfg(tmp_path, "bands.json", dict(bulk, **extra))
        assert cli.main(["bands", "--config", cfg, "--out",
                         str(tmp_path / "b")]) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "b" / "gaps.json").exists()
    # a negative dump count is refused, not sliced from the end or ignored
    for cmd, key, n in (("defect", "dump_fields", -1),
                        ("decay", "dump_profiles", -2)):
        cfg = _defect_cfg(tmp_path, **{key: n})
        assert cli.main([cmd, "--config", cfg, "--out",
                         str(tmp_path / "d")]) == 2
        assert f"bad '{key}' in config: {n} is negative" \
            in capsys.readouterr().err
    assert not (tmp_path / "d").exists() or not any((tmp_path / "d").iterdir())
    # a value the command would misread is refused, naming its key: a count
    # that is not an integer, an empty list of spacings, or a key beside
    # the one the command reads in its place
    check = {"schema": 1, "l": 2.0, "eps": 12.0, "gap": GAP}
    residual = {"schema": 1, "l": 1.0, "eps": 12.0, "mu": 2.5, "delta": 6.5,
                "cross_section": DISK, "h": 2 / 48, "rho": 0.15}
    for cmd, cfg, key in (
            ("bands", dict(bulk, bands=3.7), "bands"),
            ("bands", dict(bulk, bands=True), "bands"),
            ("defect", dict(count=16.5), "count"),
            ("defect", dict(dump_fields=1.5), "dump_fields"),
            ("decay", dict(dump_profiles=True), "dump_profiles"),
            ("residual", dict(residual, n=2.5), "n"),
            ("residual", dict(residual, quadrature="no"), "quadrature"),
            ("nu", {"schema": 1, "cross_section": DISK, "h_values": []},
             "h_values"),
            ("nu", {"schema": 1, "cross_section": DISK, "h": 2 / 32,
                    "h_values": [2 / 32]}, "h_values"),
            ("check", dict(check, nu=14.682, cross_section=DISK), "nu"),
            ("check", dict(check, nu=14.682, h=5.0), "nu"),
            ("check", dict(check, nu=14.682, gap_width=3.0), "gap")):
        path = (_defect_cfg(tmp_path, **cfg) if "schema" not in cfg
                else _cfg(tmp_path, f"{cmd}.json", cfg))
        assert cli.main([cmd, "--config", path, "--out",
                         str(tmp_path / "m")]) == 2, (cmd, cfg)
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err, err
    # a key set to null reads as absent: a required one is missing, and one
    # read in place of another is not set beside it
    for cfg, rc in ((dict(check, nu=14.682, eps=None), 2),
                    (dict(check, nu=14.682, h=None), 0)):
        path = _cfg(tmp_path, "null.json", cfg)
        assert cli.main(["check", "--config", path, "--out",
                         str(tmp_path / "m")]) == rc, cfg
    assert "missing required keys: ['eps']" in capsys.readouterr().err
    # a spacing that is not positive is refused before any solve
    for h in (0, -0.02):
        for cmd, cfg in (("nu", {"schema": 1, "cross_section": DISK}),
                         ("check", dict(check, cross_section=DISK)),
                         ("residual", residual)):
            path = _cfg(tmp_path, f"{cmd}.json", dict(cfg, h=h))
            assert cli.main([cmd, "--config", path, "--out",
                             str(tmp_path / "m")]) == 2, (cmd, h)
            err = capsys.readouterr().err
            assert "config error" in err and "is not positive" in err, err


def _solves_fail(monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved")

    for name in ("solve_nu_vector", "solve_nu_scalar", "make_test_field",
                 "band_structure", "defect_spectrum"):
        monkeypatch.setattr(cli, name, solve)


def test_runs_reach_a_solve_and_name_every_key(tmp_path, monkeypatch):
    assert {cmd: set(keys) for cmd, (_, keys) in RUNS.items()} == {
        cmd: set(keys) for cmd, keys in cli.READERS.items() if keys}
    _solves_fail(monkeypatch)
    for cmd, (cfg, _) in RUNS.items():
        path = _cfg(tmp_path, "cfg.json", dict(cfg, schema=1))
        with pytest.raises(AssertionError, match="solved"):
            cli.main([cmd, "--config", path, "--out", str(tmp_path)])


@pytest.mark.parametrize("cmd, key", [(cmd, key) for cmd, (_, keys)
                                      in RUNS.items() for key in keys])
def test_a_malformed_value_is_refused_before_any_solve(
        cmd, key, tmp_path, capsys, monkeypatch):
    _solves_fail(monkeypatch)
    cfg = {k: v for k, v in RUNS[cmd][0].items()
           if k not in IN_PLACE.get(key, ())}
    for value in ("x", OUT_OF_RANGE.get(key, "x")):
        path = _cfg(tmp_path, "cfg.json", dict(cfg, schema=1, **{key: value}))
        assert cli.main([cmd, "--config", path, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err


def test_input_faults_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    # a fault of the input that the library finds (a margin outside the
    # section, a strip wider than the grid, a spacing that under-resolves
    # the section, a mask in two pieces or with a 3D origin, empty or with
    # a spacing that is not positive, a disk center without 2 coordinates)
    # is bad input like a malformed value: exit 2, before any eigensolve
    def solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(xsection, "_smallest_eig", solve)
    monkeypatch.setattr(cli, "defect_spectrum", solve)
    residual = RUNS["residual"][0]
    wide = dict(MEDIUM, defect=dict(MEDIUM["defect"], l=20))
    rows = ["0110", "1111", "1111", "0110"]
    for cmd, cfg, message in (
            ("residual", dict(residual, rho=0.6), "margin rho=0.6 must lie"),
            ("residual", dict(residual, rho=-0.1), "margin rho=-0.1 must lie"),
            ("defect", dict(GUIDE, medium=wide),
             "strip cross-section exceeds transverse grid extent"),
            ("nu", {"cross_section": DISK, "h": 0.2},
             "spacing 0.2 under-resolves the domain"),
            ("nu", {"cross_section": {"kind": "mask",
                                      "rows": ["1110000111"] * 6}},
             "mask has 2 connected pieces"),
            ("nu", {"cross_section": {"kind": "mask", "rows": rows,
                                      "origin": [0, 0, 0]}},
             "mask origin needs 2 coordinates, not 3"),
            ("nu", {"cross_section": {"kind": "mask", "rows": []}},
             "mask must be a non-empty 2D boolean array"),
            ("nu", {"cross_section": {"kind": "mask", "rows": rows,
                                      "spacing": 0}},
             "mask spacing 0.0 is not positive"),
            ("nu", {"cross_section": {"kind": "mask", "rows": rows,
                                      "spacing": -0.5}},
             "mask spacing -0.5 is not positive"),
            ("nu", {"cross_section": dict(DISK, center=[0, 0, 0])},
             "disk center [0, 0, 0] is not 2 finite coordinates"),
            ("nu", {"cross_section": dict(DISK, center=[0])},
             "disk center [0] is not 2 finite coordinates")):
        path = _cfg(tmp_path, "cfg.json", dict(cfg, schema=1))
        assert cli.main([cmd, "--config", path, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err


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


def test_bands_command_rejects_a_3d_medium(tmp_path, capsys):
    # scalar bands of a 3D grid are not the medium's: no gaps.json is written
    cfg = _cfg(tmp_path, "bands3.json", {
        "schema": 1, "medium": {"lattice": [1.0, 1.0, 1.0]},
        "grid": {"shape": [4, 4, 4], "spacing": [0.25] * 3,
                 "origin": [0.0] * 3},
        "k_samples": {"start": 0.0, "stop": np.pi, "num": 3}})
    out = tmp_path / "out"
    assert cli.main(["bands", "--config", cfg, "--out", str(out)]) == 2
    assert "1D or 2D grid" in capsys.readouterr().err
    assert not (out / "gaps.json").exists()


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


def test_defect_command_defaults_to_eight_k1_samples(tmp_path, capsys):
    # with no k1_samples the sweep is 8 samples over [0, pi / a], a the
    # medium's axial lattice period (0.25 here, so not the unit period)
    cfg = _cfg(tmp_path, "defect.json", {
        "schema": 1, "medium": MEDIUM, "grid": GRID, "gap": GAP,
        "count": 16, "delta": 0.25})
    out = tmp_path / "out"
    assert cli.main(["defect", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["modes"] > 0
    a = MEDIUM["lattice"][0]
    assert (read_json(out / "coverage.json")["k1_samples"]
            == np.linspace(0, np.pi / a, 8).tolist())


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
    # a step that is not positive, or a fit bound that is not a number, is
    # a configuration error, exit 2
    flat = _defect_cfg(tmp_path, step=0)
    assert cli.main(["decay", "--config", flat, "--out", str(tmp_path / "o2")]) == 2
    assert "bad 'step' in config: 0 is not positive" \
        in capsys.readouterr().err
    word = _defect_cfg(tmp_path, step=0.25, d_min="x")
    assert cli.main(["decay", "--config", word, "--out", str(tmp_path / "o2")]) == 2
    assert "bad 'd_min' in config" in capsys.readouterr().err


def test_arpack_errors_exit_3(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(3)

    monkeypatch.setattr(spla, "eigsh", fail)
    monkeypatch.setattr(spla, "eigs", fail)
    A = sp.diags(np.arange(1.0, 65.0))
    with pytest.raises(IterationError, match="Lanczos at shift"):
        interior_eigs([A], (10.5, 20.5), count=10)
    # a window above count raises before Lanczos could fail
    with pytest.raises(ValidationError, match="holds 10"):
        interior_eigs([A], (10.5, 20.5), count=4)
    # a 2D bulk's bands come from Lanczos (1D bands need none)
    grid = GridSpec((8, 8), (1 / 8, 1 / 8))
    with pytest.raises(IterationError, match="Lanczos at shift"):
        band_structure(SampledEpsilon(grid, np.ones((8, 8))), [0.0], bands=6)
    with pytest.raises(IterationError):
        solve_nu_scalar(Box((1.0,)), h=2 / 64)
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
    # a window above count is a configuration error, the same in every cell
    capsys.readouterr()
    capped = _cfg(tmp_path, "capped.json", {
        **json.loads(Path(cfg).read_text()), "count": 1})
    assert cli.main(["sweep", "--config", capped,
                     "--out", str(tmp_path / "capped")]) == 2
    assert re.search(r"holds \d+ eigenvalues, more than count = 1",
                     capsys.readouterr().err)
    assert not (tmp_path / "capped" / "existence_map.csv").exists()
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


def test_artifacts_do_not_depend_on_the_output_directory(tmp_path, capsys):
    # the same configs write the same bytes into any --out, plot scripts
    # included: each finds its CSV beside itself
    configs = {"bands": BULK, "defect": GUIDE,
               "decay": dict(GUIDE, step=0.25, d_min=1.5, d_max=2.5,
                             dump_profiles=1),
               "sweep": dict(GUIDE, nu=14.682, l_values=[1.5],
                             eps_values=[12.0])}
    trees = []
    for out in (tmp_path / "a", tmp_path / "b" / "c" / "d"):
        for cmd, cfg in configs.items():
            path = _cfg(tmp_path, f"{cmd}.json", dict(cfg, schema=1))
            assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
        assert cli.main(["report", "--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()})
    assert {p.name for p in trees[0]} >= {
        "plot_bands.py", "plot_decay.py", "plot_map.py", "summary.md"}
    assert trees[0] == trees[1]


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
