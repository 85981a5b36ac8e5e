"""Command-line entry point: config-driven runs, sweeps, and reporting.

Commands dispatch to the library modules and leave deterministic artifacts
(CSV/JSON/binary dumps) in the output directory; every artifact records the
config hash and the BLAS the solves ran on; `--seed` and `--threads` are
read by nothing, kept so that existing command lines parse.  A config value
that would be misread (a fractional count, an empty spacing list, a key
beside the one read in its place) is refused, naming its key.  Exit codes:
0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import fields_io as io
from .discrete_op import _blas_record
from .errors import (ConfigError, GapguideError, GeometryError, IterationError,
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


def _load_config(path, command: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema {cfg.get('schema')!r}")
    unread = sorted(set(cfg) - CONFIG_KEYS[command] - {"schema"})
    if unread:
        raise ConfigError(f"{command} does not read config keys {unread}")
    return cfg


def _need(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"config is missing required keys: {missing}")


def _either(cfg: dict, key: str, *others):
    """Refuse `key` together with any of `others`, of which the command
    would read only `key`."""
    both = [k for k in others if k in cfg]
    if key in cfg and both:
        raise ConfigError(f"config sets {key!r} and {both}; give only one")


@contextmanager
def _block(name: str):
    """Raise a malformed config value or block as a ConfigError naming it."""
    try:
        yield
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ConfigError(f"bad {name!r} in config: {exc!r}") from exc


def _number(cfg: dict, key: str, default=None) -> float:
    """cfg[key], else `default`, as a float."""
    with _block(key):
        return float(cfg.get(key, default))


def _integer(cfg: dict, key: str, default: int) -> int:
    """cfg[key], else `default`, as an int; a boolean or a number with a
    fractional part is refused, not truncated."""
    n = _number(cfg, key, default)
    if isinstance(cfg.get(key), bool) or not n.is_integer():
        raise ConfigError(f"bad {key!r} in config: {cfg[key]!r} is not an "
                          f"integer")
    return int(n)


def _count(cfg: dict, key: str, default: int) -> int:
    """cfg[key], else `default`, as an int that is not negative."""
    n = _integer(cfg, key, default)
    if n < 0:
        raise ConfigError(f"bad {key!r} in config: {n} is negative")
    return n


def _section(cfg):
    with _block("cross_section"):
        return _dec_section(cfg)


def _grid(cfg) -> GridSpec:
    with _block("grid"):
        _need(cfg, "shape", "spacing")
        return GridSpec(tuple(cfg["shape"]), tuple(cfg["spacing"]),
                        tuple(cfg.get("origin", [0.0] * len(cfg["shape"]))))


def _medium(cfg) -> MediumSpec:
    if isinstance(cfg, str):
        p = Path(cfg)
        if not p.is_file():
            raise ConfigError(f"medium spec file not found: {p}")
        text = p.read_text()
    else:
        text = json.dumps(cfg)
    with _block("medium"):
        return MediumSpec.from_json(text)


def _gap(cfg) -> GapInterval:
    _either(cfg, "gap", "gap_width")
    with _block("gap"):
        if "gap" in cfg:
            a, b = cfg["gap"]
            return GapInterval(float(a), float(b))
        if "gap_width" in cfg:
            return GapInterval(1.0, 1.0 + float(cfg["gap_width"]))
    raise ConfigError("config needs 'gap': [alpha, beta] or 'gap_width'")


def _samples(cfg: dict, key: str):
    block = cfg.get(key)
    if block is None:
        return None
    with _block(key):
        if isinstance(block, dict):
            return np.linspace(block["start"], block["stop"], block["num"])
        samples = np.asarray(block, dtype=float)
        if samples.ndim != 1:
            raise ValueError(f"not a list of numbers: {block!r}")
        return samples


def _k1_samples(cfg: dict, spec: MediumSpec):
    """cfg's "k1_samples", else 8 samples over [0, pi / a], a the medium's
    axial lattice period."""
    k1 = _samples(cfg, "k1_samples")
    return np.linspace(0.0, np.pi / spec.lattice[0], 8) if k1 is None else k1


def _provenance(cfg, **extra) -> dict:
    d = {"config_hash": io.config_hash(cfg), "blas": _blas_record()}
    d.update(extra)
    return d


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_nu(cfg, out: Path) -> int:
    _need(cfg, "cross_section")
    with _block("kind"):
        solver = {"vector": solve_nu_vector,
                  "scalar": solve_nu_scalar}[cfg.get("kind", "vector")]
    cs = _section(cfg["cross_section"])
    _either(cfg, "h_values", "h")
    if "h_values" in cfg:
        with _block("h_values"):
            hs = [float(h) for h in cfg["h_values"]]
        if not hs:
            raise ConfigError("bad 'h_values' in config: the list is empty")
    else:
        hs = [_number(cfg, "h", cs.diameter() / 96)]
    estimates = [solver(cs, h) for h in hs]
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
    _need(cfg, "l", "eps")
    gap = _gap(cfg)
    _either(cfg, "nu", "cross_section", "h")
    if "nu" in cfg:
        nu = _number(cfg, "nu")
        grid_h = None
    else:
        _need(cfg, "cross_section")
        cs = _section(cfg["cross_section"])
        grid_h = _number(cfg, "h", cs.diameter() / 96)
        nu = solve_nu_vector(cs, grid_h)
    rep = check_condition(_number(cfg, "l"), _number(cfg, "eps"), gap, nu)
    doc = rep.record()
    doc["provenance"] = _provenance(cfg, module="existence", grid_h=grid_h)
    io.write_json(out / "check.json", doc)
    verdict = "satisfied" if rep.passed else "not satisfied"
    print(f"condition {verdict}, margin {rep.margin:.3f}")
    return 0


def cmd_residual(cfg, out: Path) -> int:
    _need(cfg, "l", "eps", "mu", "delta", "cross_section")
    cs = _section(cfg["cross_section"])
    h = _number(cfg, "h", cs.diameter() / 96)
    tf = make_test_field(cs, _number(cfg, "rho", 0.1 * cs.inradius()), h)
    psi = Profile.bump(2)
    tp = TrialParams(l=_number(cfg, "l"), eps=_number(cfg, "eps"),
                     mu=_number(cfg, "mu"), delta=_number(cfg, "delta"),
                     n=_integer(cfg, "n", 1), psi=psi, g=tf)
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
        grid = quadrature_grid(tp)
        doc["quadrature"] = residual_quadrature(tp, grid)
    doc["provenance"] = _provenance(cfg, module="existence", grid_h=h)
    io.write_json(out / "residual.json", doc)
    print(json.dumps({"n": tp.n, "residual_sq": rep.closed_form,
                      "threshold": rep.threshold, "passes": rep.passes}))
    return 0


def cmd_bands(cfg, out: Path) -> int:
    _need(cfg, "medium", "grid", "k_samples")
    eps = build_medium(_medium(cfg["medium"]), _grid(cfg["grid"]))
    bt = band_structure(eps, _samples(cfg, "k_samples"),
                        bands=_integer(cfg, "bands", 8))
    gaps = find_gaps(bt, _number(cfg, "min_gap_width", 0.5))
    io.band_csv(bt, out / "bands.csv")
    io.write_json(out / "gaps.json", {
        "gaps": [[g.alpha, g.beta] for g in gaps],
        "provenance": _provenance(cfg, module="eigen",
                                  grid_h=float(max(eps.grid.spacing)))})
    io.emit_plot_script(out / "plot_bands.py", "bands",
                        out / "bands.csv", out / "bands.png")
    print(json.dumps({"gaps": [[g.alpha, g.beta] for g in gaps]}))
    return 0


def _defect_run(cfg):
    _need(cfg, "medium", "grid", "gap")
    spec = _medium(cfg["medium"])
    if spec.defect is None:
        raise ConfigError("defect command needs a medium with a defect strip")
    eps = with_defect(build_medium(spec, _grid(cfg["grid"])), spec.defect)
    ds = defect_spectrum(
        eps, spec.defect, _gap(cfg),
        k1_samples=_k1_samples(cfg, spec),
        delta=_number(cfg, "delta", 0.15),
        count=_integer(cfg, "count", 30))
    return spec, eps, ds


def cmd_defect(cfg, out: Path) -> int:
    dumps = _count(cfg, "dump_fields", 0)
    spec, eps, ds = _defect_run(cfg)
    io.modes_csv(ds.modes, out / "modes.csv")
    io.write_json(out / "coverage.json", {
        "delta": ds.delta, "covered": ds.covered,
        "points": [[mu, flag] for mu, flag in ds.coverage],
        "k1_samples": list(ds.k1_samples),
        "provenance": _provenance(cfg, module="eigen",
                                  grid_h=float(max(eps.grid.spacing)))})
    for i, m in enumerate(ds.modes[:dumps]):
        io.write_field(out / f"mode_{i:03d}", m.field.values, m.field.grid,
                       meta={"lambda": m.lam, "bloch_k1": m.k1,
                             "staggering": "cell-centred"})
    print(json.dumps({"modes": len(ds.modes), "covered": ds.covered}))
    return 0


def cmd_decay(cfg, out: Path) -> int:
    dumps = _count(cfg, "dump_profiles", 3)
    spec, eps, ds = _defect_run(cfg)
    gap = _gap(cfg)
    dumped = min(len(ds.modes), dumps)
    step = _number(cfg, "step", 0.125)
    window = {k: _number(cfg, k) for k in ("d_min", "d_max")
              if cfg.get(k) is not None}
    fits = []
    for i, m in enumerate(ds.modes):
        prof = profile(m, spec.defect, step=step)
        fit = fit_decay(prof, **window)
        rec = fit.record()
        rec.update({"lambda": m.lam, "k1": m.k1,
                    "ct_shape": ct_shape(m.lam, gap)})
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
        io.emit_plot_script(out / "plot_decay.py", "decay",
                            out / "profile_000.csv", out / "decay.png")
    print(json.dumps({"modes": len(fits), "rank_correlation": corr}))
    return 0


def cmd_sweep(cfg, out: Path) -> int:
    _need(cfg, "medium", "grid", "gap", "l_values", "eps_values", "nu")
    base = _medium(cfg["medium"])
    if base.defect is None:
        raise ConfigError("sweep needs a template defect strip in the medium")
    grid = _grid(cfg["grid"])
    gap = _gap(cfg)
    nu = _number(cfg, "nu")
    k1_samples = _k1_samples(cfg, base)
    delta = _number(cfg, "delta", 0.15)
    count = _integer(cfg, "count", 30)
    with _block("l_values"):
        ls = [float(l) for l in cfg["l_values"]]
    with _block("eps_values"):
        es = [float(e) for e in cfg["eps_values"]]
    if not (ls and es):
        raise ConfigError("sweep needs at least one value in 'l_values' "
                          "and in 'eps_values'")
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

    rows = [cell(l, e) for l in ls for e in es]
    io.write_csv(out / "existence_map.csv",
                 ["l", "eps", "margin", "condition", "modes", "delta_net",
                  "error"], rows)
    io.write_json(out / "existence_map.json", {
        "provenance": _provenance(cfg, module="cli",
                                  grid_h=float(max(grid.spacing)))})
    io.emit_plot_script(out / "plot_map.py", "map",
                        out / "existence_map.csv", out / "existence_map.png")
    print(json.dumps({"cells": len(rows)}))
    return 0


def cmd_report(_cfg, out: Path) -> int:
    lines = ["# Run summary", ""]
    found = False
    nu_doc = _maybe(out / "nu.json")
    if nu_doc:
        found = True
        lines += ["## Cross-section constant", "",
                  f"- nu = {nu_doc['value']:.6g} (order {nu_doc['order']},"
                  f" h = {nu_doc['h']:.4g})", ""]
    chk = _maybe(out / "check.json")
    if chk:
        found = True
        verdict = "satisfied" if chk["passed"] else "not satisfied"
        lines += ["## Existence condition", "",
                  f"- {verdict}: lhs {chk['lhs']:.6g} vs rhs {chk['rhs']:.6g}"
                  f" (margin {chk['margin']:.6g}, delta* {chk['delta_star']:.6g})",
                  ""]
    gaps = _maybe(out / "gaps.json")
    if gaps:
        found = True
        lines += ["## Spectral gaps", ""]
        lines += [f"- ({a:.6g}, {b:.6g})" for a, b in gaps["gaps"]] + [""]
    res = _maybe(out / "residual.json")
    if res:
        found = True
        lines += ["## Trial residual", "",
                  f"- n = {res['n']}, residual^2 {res['closed_form']:.6g} vs"
                  f" budget {res['threshold']:.6g}"
                  f" ({'passes' if res['passes'] else 'fails'})", ""]
    cov = _maybe(out / "coverage.json")
    if cov:
        found = True
        ok = sum(1 for _, f in cov["points"] if f)
        lines += ["## Gap coverage (delta-net)", "",
                  f"- {ok}/{len(cov['points'])} sampled points covered at"
                  f" delta = {cov['delta']:.4g}", ""]
    dec = _maybe(out / "decay_fits.json")
    if dec:
        found = True
        lines += ["## Confinement", "",
                  f"- {len(dec['fits'])} modes fitted; rank correlation with"
                  f" the in-gap rate shape: {dec['rank_correlation']}", ""]
    if not found:
        lines += ["no artifacts found in " + str(out), ""]
    (out / "summary.md").write_text("\n".join(lines))
    print(f"report written to {out / 'summary.md'}")
    return 0


def _maybe(path: Path):
    try:
        return io.read_json(path)
    except FileNotFoundError:
        return None


# top-level config keys each command reads; any other key is a ConfigError,
# so a misspelt or retired key cannot run silently with its default
_DEFECT_KEYS = {"medium", "grid", "gap", "k1_samples", "delta", "count"}
CONFIG_KEYS = {
    "nu": {"cross_section", "kind", "h", "h_values"},
    "check": {"l", "eps", "gap", "gap_width", "nu", "cross_section", "h"},
    "residual": {"l", "eps", "mu", "delta", "n", "cross_section", "h", "rho",
                 "quadrature"},
    "bands": {"medium", "grid", "k_samples", "bands", "min_gap_width"},
    "defect": _DEFECT_KEYS | {"dump_fields"},
    "decay": _DEFECT_KEYS | {"step", "d_min", "d_max", "dump_profiles"},
    "sweep": _DEFECT_KEYS | {"l_values", "eps_values", "nu"},
    "report": set(),
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
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GapguideError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
