"""Command-line entry point: config-driven runs, sweeps, and reporting.

Commands dispatch to the library modules and leave deterministic artifacts
(CSV/JSON/binary dumps) in the output directory; every artifact records the
config hash and the BLAS the solves ran on; `--seed` and `--threads` are
read by nothing, kept so that existing command lines parse.  READERS gives
each key a command reads its reader, and every value is parsed before the
command solves anything: a malformed or misread value (a fractional count,
an empty spacing list, a length that is not positive, a key beside the one
read in its place) is refused, naming its key.  Config defaults (`bands`
8, `delta` 0.15, `count` 30, `step` 0.125, `h` the cross-section's
diameter over 96) live here alone.  Exit codes:
0 success, 2 bad input (a `ValidationError`), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fields_io as io
from .discrete_op import _blas_record
from .errors import (GapguideError, GeometryError, IterationError,
                     ResolutionError, ValidationError)
from .existence import (GapInterval, Profile, TrialParams, check_condition,
                        minimal_n, quadrature_grid, residual_closed_form,
                        residual_quadrature)
from .grids import GridSpec
from .media import MediumSpec, _dec_section, build_medium, with_defect
from .xsection import make_test_field, refine_extrapolate, solve_nu_scalar, solve_nu_vector
from .eigen import band_structure, defect_spectrum, find_gaps
from .decay import ct_shape, fit_decay, profile, rank_correlation

SCHEMA_VERSION = 1


class _Key(NamedTuple):
    """One config key of a command: `read` parses its value; `excludes` are
    keys read in its place, and a required key is missing without them."""
    read: Callable
    required: bool = False
    excludes: tuple = ()


def _load_config(path, command: str) -> dict:
    """The config's values, each parsed by its key's reader in READERS, and
    "config_hash", the hash of its JSON.  A null value reads as absent; an
    unread, missing or excluded key or a malformed value is refused before
    the command solves anything, naming the key."""
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"config is a {type(raw).__name__}, not a JSON object")
    given = {k: v for k, v in raw.items() if v is not None}
    schema = given.pop("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ValidationError(f"unsupported config schema {schema!r}")
    keys = READERS[command]
    unread = sorted(set(given) - set(keys))
    if unread:
        raise ValidationError(f"{command} does not read config keys {unread}")
    missing = [k for k, key in keys.items()
               if key.required and not given.keys() & {k, *key.excludes}]
    if missing:
        raise ValidationError(f"config is missing required keys: {missing}")
    cfg = {"config_hash": io.config_hash(raw)}
    for k, value in given.items():
        both = [x for x in keys[k].excludes if x in given]
        if both:
            raise ValidationError(f"config sets {k!r} and {both}; give only one")
        try:
            cfg[k] = keys[k].read(value)
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            detail = exc if isinstance(exc, ValidationError) else repr(exc)
            raise ValidationError(f"bad {k!r} in config: {detail}") from exc
    return cfg


# readers: each parses one JSON value, refusing one it would misread
def _integer(value) -> int:
    """An integral number as an int: a boolean or 3.7 is refused."""
    n = float(value)
    if isinstance(value, bool) or not n.is_integer():
        raise ValidationError(f"{value!r} is not an integer")
    return int(n)


def _count(value) -> int:
    n = _integer(value)
    if n < 0:
        raise ValidationError(f"{n} is negative")
    return n


def _positive(value, read=float):
    """A number above zero, parsed by `read`: -1, 0 or NaN is refused."""
    x = read(value)
    if not x > 0:
        raise ValidationError(f"{value!r} is not positive")
    return x


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{value!r} is not true or false")
    return value


def _numbers(value) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{value!r} is not a list of numbers")
    return [float(x) for x in value]


def _values(value) -> list:
    values = _numbers(value)
    if not values:
        raise ValidationError("the list needs at least one value")
    return values


def _positives(value) -> list:
    return [_positive(x) for x in _values(value)]


def _samples(value) -> np.ndarray:
    """A list of numbers, or `{"start", "stop", "num"}` for a linspace."""
    if isinstance(value, dict):
        return np.linspace(value["start"], value["stop"], value["num"])
    return np.array(_numbers(value))


def _grid(value) -> GridSpec:
    return GridSpec(value["shape"], value["spacing"], value.get("origin"))


def _medium(value) -> MediumSpec:
    """A medium spec, or the path of a file holding one."""
    if isinstance(value, str):
        p = Path(value)
        if not p.is_file():
            raise ValidationError(f"medium spec file not found: {p}")
        return MediumSpec.from_json(p.read_text())
    return MediumSpec.from_json(json.dumps(value))


def _guide(value) -> MediumSpec:
    spec = _medium(value)
    if spec.defect is None:
        raise ValidationError("the medium has no defect strip")
    return spec


def _gap(value) -> GapInterval:
    a, b = value
    return GapInterval(float(a), float(b))


def _spacing(cfg: dict) -> float:
    """cfg's "h", else 96 spacings across the cross-section's bounding box."""
    return cfg.get("h", cfg["cross_section"].diameter() / 96)


def _k1_samples(cfg: dict):
    """cfg's "k1_samples", else 8 over [0, pi / the medium's axial period]."""
    return cfg.get("k1_samples", np.linspace(
        0.0, np.pi / cfg["medium"].lattice[0], 8))


def _provenance(cfg, **extra) -> dict:
    return {"config_hash": cfg["config_hash"], "blas": _blas_record(), **extra}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_nu(cfg, out: Path) -> int:
    solver = cfg.get("kind", solve_nu_vector)
    hs = cfg.get("h_values", [_spacing(cfg)])
    estimates = [solver(cfg["cross_section"], h) for h in hs]
    best = (refine_extrapolate(estimates) if len(estimates) >= 3
            else min(estimates, key=lambda e: e.grid_h))
    doc = best.record()
    doc["per_grid"] = [e.record() for e in estimates]
    doc["provenance"] = _provenance(cfg, module="xsection",
                                    grid_h=float(min(hs)))
    io.write_json(out / "nu.json", doc)
    print(json.dumps({"nu": doc["value"], "order": doc["order"]}))
    return 0


def cmd_check(cfg, out: Path) -> int:
    gap = cfg["gap"] if "gap" in cfg else cfg["gap_width"]
    if "nu" in cfg:
        nu, grid_h = cfg["nu"], None
    else:
        grid_h = _spacing(cfg)
        nu = solve_nu_vector(cfg["cross_section"], grid_h)
    rep = check_condition(cfg["l"], cfg["eps"], gap, nu)
    doc = rep.record()
    doc["provenance"] = _provenance(cfg, module="existence", grid_h=grid_h)
    io.write_json(out / "check.json", doc)
    verdict = "satisfied" if rep.passed else "not satisfied"
    print(f"condition {verdict}, margin {rep.margin:.3f}")
    return 0


def cmd_residual(cfg, out: Path) -> int:
    cs, h = cfg["cross_section"], _spacing(cfg)
    tf = make_test_field(cs, cfg.get("rho", 0.1 * cs.inradius()), h)
    tp = TrialParams(l=cfg["l"], eps=cfg["eps"], mu=cfg["mu"],
                     delta=cfg["delta"], n=cfg.get("n", 1),
                     psi=Profile.bump(2), g=tf)
    if "n" not in cfg:
        n = minimal_n(tp)
        if n is None:
            raise ValidationError(
                "residual floor exceeds the budget for every n "
                "(l^2 delta eps <= quotient of the test field)")
        tp = dataclasses.replace(tp, n=n)
    rep = residual_closed_form(tp)
    doc = rep.record()
    doc["n"] = tp.n
    if cfg.get("quadrature", False):
        doc["quadrature"] = residual_quadrature(tp, quadrature_grid(tp))
    doc["provenance"] = _provenance(cfg, module="existence", grid_h=h)
    io.write_json(out / "residual.json", doc)
    print(json.dumps({"n": tp.n, "residual_sq": rep.closed_form,
                      "threshold": rep.threshold, "passes": rep.passes}))
    return 0


def cmd_bands(cfg, out: Path) -> int:
    eps = build_medium(cfg["medium"], cfg["grid"])
    bt = band_structure(eps, cfg["k_samples"], bands=cfg.get("bands", 8))
    gaps = find_gaps(bt, cfg.get("min_gap_width", 0.5))
    io.band_csv(bt, out / "bands.csv")
    io.write_json(out / "gaps.json", {
        "gaps": [[g.alpha, g.beta] for g in gaps],
        "provenance": _provenance(cfg, module="eigen",
                                  grid_h=float(max(eps.grid.spacing)))})
    io.emit_plot_script(out / "plot_bands.py", "bands")
    print(json.dumps({"gaps": [[g.alpha, g.beta] for g in gaps]}))
    return 0


def _defect_run(cfg):
    spec = cfg["medium"]
    eps = with_defect(build_medium(spec, cfg["grid"]), spec.defect)
    ds = defect_spectrum(eps, spec.defect, cfg["gap"],
                         k1_samples=_k1_samples(cfg),
                         delta=cfg.get("delta", 0.15),
                         count=cfg.get("count", 30))
    return spec, eps, ds


def cmd_defect(cfg, out: Path) -> int:
    spec, eps, ds = _defect_run(cfg)
    io.modes_csv(ds.modes, out / "modes.csv")
    io.write_json(out / "coverage.json", {
        "delta": ds.delta, "covered": ds.covered,
        "points": [[mu, flag] for mu, flag in ds.coverage],
        "k1_samples": list(ds.k1_samples),
        "provenance": _provenance(cfg, module="eigen",
                                  grid_h=float(max(eps.grid.spacing)))})
    for i, m in enumerate(ds.modes[:cfg.get("dump_fields", 0)]):
        io.write_field(out / f"mode_{i:03d}", m.field.values, m.field.grid,
                       meta={"lambda": m.lam, "bloch_k1": m.k1,
                             "staggering": "cell-centred"})
    print(json.dumps({"modes": len(ds.modes), "covered": ds.covered}))
    return 0


def cmd_decay(cfg, out: Path) -> int:
    window = {k: cfg[k] for k in ("d_min", "d_max") if k in cfg}
    if window.get("d_max", np.inf) <= window.get("d_min", -np.inf):
        raise ValidationError(f"d_max <= d_min: empty fit window {window}")
    spec, eps, ds = _defect_run(cfg)
    dumped = min(len(ds.modes), cfg.get("dump_profiles", 3))
    fits = []
    for i, m in enumerate(ds.modes):
        prof = profile(m, spec.defect, step=cfg.get("step", 0.125))
        fit = fit_decay(prof, **window)
        rec = fit.record()
        rec.update({"lambda": m.lam, "k1": m.k1,
                    "ct_shape": ct_shape(m.lam, cfg["gap"])})
        fits.append(rec)
        if i < dumped:
            io.profile_csv(prof, out / f"profile_{i:03d}.csv",
                           fit.d_min, fit.d_max)
    corr = (rank_correlation([f["rate"] for f in fits],
                             [f["ct_shape"] for f in fits])
            if len(fits) >= 2 else None)
    io.write_json(out / "decay_fits.json", {
        "fits": fits, "rank_correlation": corr,
        "provenance": _provenance(cfg, module="decay",
                                  grid_h=float(max(eps.grid.spacing)))})
    if dumped > 0:
        io.emit_plot_script(out / "plot_decay.py", "decay")
    print(json.dumps({"modes": len(fits), "rank_correlation": corr}))
    return 0


def cmd_sweep(cfg, out: Path) -> int:
    base, grid, gap, nu = cfg["medium"], cfg["grid"], cfg["gap"], cfg["nu"]
    k1_samples = _k1_samples(cfg)
    delta, count = cfg.get("delta", 0.15), cfg.get("count", 30)
    eps0 = build_medium(base, grid)

    # a cell's strip may miss or under-resolve the grid, or its solve fail:
    # that cell's row records the error; a configuration error (a window
    # above count) is the same in every cell and exits 2
    def cell(l, e):
        strip = dataclasses.replace(base.defect, l=l, eps_inside=e)
        rep = check_condition(l, e, gap, nu)
        try:
            ds = defect_spectrum(with_defect(eps0, strip), strip, gap,
                                 k1_samples=k1_samples, delta=delta,
                                 count=count)
            return (l, e, rep.margin, int(rep.passed), len(ds.modes),
                    int(ds.covered), "")
        except (GeometryError, ResolutionError, IterationError) as exc:
            return (l, e, rep.margin, int(rep.passed), -1, 0, str(exc))

    rows = [cell(l, e) for l in cfg["l_values"] for e in cfg["eps_values"]]
    io.write_csv(out / "existence_map.csv",
                 ["l", "eps", "margin", "condition", "modes", "delta_net",
                  "error"], rows)
    io.write_json(out / "existence_map.json", {
        "provenance": _provenance(cfg, module="cli",
                                  grid_h=float(max(grid.spacing)))})
    io.emit_plot_script(out / "plot_map.py", "map")
    print(json.dumps({"cells": len(rows)}))
    return 0


# (artifact, heading, its summary lines) in the order `report` writes them
SUMMARY = (
    ("nu.json", "Cross-section constant", lambda d: [
        f"- nu = {d['value']:.6g} (order {d['order']}, h = {d['h']:.4g})"]),
    ("check.json", "Existence condition", lambda d: [
        f"- {'satisfied' if d['passed'] else 'not satisfied'}: lhs"
        f" {d['lhs']:.6g} vs rhs {d['rhs']:.6g} (margin {d['margin']:.6g},"
        f" delta* {d['delta_star']:.6g})"]),
    ("gaps.json", "Spectral gaps", lambda d: [
        f"- ({a:.6g}, {b:.6g})" for a, b in d["gaps"]]),
    ("residual.json", "Trial residual", lambda d: [
        f"- n = {d['n']}, residual^2 {d['closed_form']:.6g} vs budget"
        f" {d['threshold']:.6g} ({'passes' if d['passes'] else 'fails'})"]),
    ("coverage.json", "Gap coverage (delta-net)", lambda d: [
        f"- {sum(1 for _, f in d['points'] if f)}/{len(d['points'])} sampled"
        f" points covered at delta = {d['delta']:.4g}"]),
    ("decay_fits.json", "Confinement", lambda d: [
        f"- {len(d['fits'])} modes fitted; rank correlation with the in-gap"
        f" rate shape: {d['rank_correlation']}"]),
)


def cmd_report(_cfg, out: Path) -> int:
    lines = ["# Run summary", ""]
    for name, heading, summary in SUMMARY:
        if (out / name).is_file():
            lines += [f"## {heading}", "", *summary(io.read_json(out / name)),
                      ""]
    if len(lines) == 2:
        lines += ["no artifacts found", ""]
    (out / "summary.md").write_text("\n".join(lines))
    print(f"report written to {out / 'summary.md'}")
    return 0


# the key each command reads, each with its reader; `_load_config` refuses
# any other, so a misspelt or retired key cannot run silently
_NUMBER, _POSITIVE = _Key(float), _Key(_positive)
_REQUIRED = _Key(_positive, True)
_SECTION = _Key(_dec_section, True)
_GUIDE_KEYS = {"medium": _Key(_guide, True), "grid": _Key(_grid, True),
               "gap": _Key(_gap, True), "k1_samples": _Key(_samples),
               "delta": _POSITIVE, "count": _Key(_count)}
READERS = {
    "nu": {"cross_section": _SECTION,
           "kind": _Key(lambda kind: {"vector": solve_nu_vector,
                                      "scalar": solve_nu_scalar}[kind]),
           "h": _POSITIVE, "h_values": _Key(_positives, excludes=("h",))},
    "check": {"l": _REQUIRED, "eps": _REQUIRED,
              "gap": _Key(_gap, True, ("gap_width",)),
              "gap_width": _Key(lambda w: GapInterval(1.0, 1.0 + float(w))),
              "nu": _Key(float, excludes=("h",)),
              "cross_section": _Key(_dec_section, True, ("nu",)),
              "h": _POSITIVE},
    "residual": {"l": _REQUIRED, "eps": _REQUIRED, "mu": _REQUIRED,
                 "delta": _REQUIRED, "cross_section": _SECTION,
                 "n": _Key(lambda n: _positive(n, _integer)), "h": _POSITIVE,
                 "rho": _NUMBER, "quadrature": _Key(_flag)},
    "bands": {"medium": _Key(_medium, True), "grid": _Key(_grid, True),
              "k_samples": _Key(_samples, True), "bands": _Key(_integer),
              "min_gap_width": _NUMBER},
    "defect": {**_GUIDE_KEYS, "dump_fields": _Key(_count)},
    "decay": {**_GUIDE_KEYS, "step": _POSITIVE, "d_min": _NUMBER,
              "d_max": _NUMBER, "dump_profiles": _Key(_count)},
    "sweep": {**_GUIDE_KEYS, "l_values": _Key(_positives, True),
              "eps_values": _Key(_positives, True), "nu": _Key(float, True)},
    "report": {},
}
COMMANDS = {"nu": cmd_nu, "check": cmd_check, "residual": cmd_residual,
            "bands": cmd_bands, "defect": cmd_defect, "decay": cmd_decay,
            "sweep": cmd_sweep, "report": cmd_report}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gapguide",
        description="Spectral gaps, guided modes, and confinement")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name != "report"))
        p.add_argument("--out", default="gapguide-out")
        p.add_argument("--seed", type=int, default=0,
                       help="read by nothing; kept so that existing command "
                            "lines (bench/workloads.py) parse")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1,
                           help="read by nothing: the cells run in order; "
                                "kept so that existing sweep command lines "
                                "(bench/workloads.py) still parse")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config, args.command) if args.config else {}
        return COMMANDS[args.command](cfg, out)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GapguideError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
