"""Command-line driver for the dressed-molecule resonance pipeline.

Seven subcommands cover the workflow end to end: ``levels`` (field-free
table plus upper-well curves), ``adiabatic`` (dressed potentials at one
field point), ``resonance`` (single Floquet solve), ``ep-map`` /
``ep-refine`` (coalescence searches), ``loop`` (one parameter-plane
traversal), and ``scenario`` (chained loops).

Config files are plain ``key = value`` text read like model descriptors
(``#`` starts a comment); keys are the long option names without the
leading dashes (``grid.n-points = 6001``).  Values
given as command-line flags win over config values.  The ``scenario``
command additionally reads numbered loop sections (``loop1.lambda0``,
``loop1.v-from``, ...) that have no flag equivalent.

Each command writes its CSV/SVG outputs under ``--out`` and returns its
results, a one-line summary and an exit code; ``main`` writes them as the
``<command>.json`` run document (config echo, results, provenance) and
prints the summary to stdout.  ``--cache`` exists on the commands that
reuse solves (``resonance``, ``ep-refine``, ``ep-map``), ``--jobs`` on
``ep-map`` alone.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .bound_states import adiabatic_levels, field_free_levels
from .cache import SolveCache
from .ep import (DIAGNOSTIC_INTENSITY, EPCandidate, EPRecord, approximate_eps,
                 cluster_bands, records_from_csv, records_to_csv, refine_ep)
from .errors import ContinuationError, ConvergenceError, GridError, ModelError
from .floquet import build_system, classify_resonance, ramp_resonance
from .loops import LoopSpec, follow_resonance, run_scenario, trajectory_to_csv
from .molecule import (FieldPoint, RadialGrid, adiabatic_potentials, key_value,
                       load_molecule, parse_key_values)
from .svg import ep_map_plot, line_plot


# ---------------------------------------------------------------- config

_LOOP_KEY = re.compile(r"loop(\d+)\.(.+)")


def _split_loop_sections(pairs):
    plain, loops = {}, {}
    for key, val in pairs.items():
        m = _LOOP_KEY.fullmatch(key)
        if m:
            loops.setdefault(int(m.group(1)), {})[m.group(2)] = val
        else:
            plain[key] = val
    return plain, loops


def _coerce(action, raw):
    if action.const is True:
        word = raw.lower()
        if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError("want 1, true, yes or on, or 0, false, no or off")
        return word in ("1", "true", "yes", "on")
    if action.nargs == 2:
        toks = raw.split()
        if len(toks) != 2:
            raise ValueError("want 2 values")
        return [action.type(tok) for tok in toks]
    return (action.type or str)(raw)


def _apply_config(subparser, pairs, path):
    """Install config values as parser defaults, so explicit flags win."""
    actions = {a.dest: a for a in subparser._actions}
    defaults = {}
    for key in pairs:
        dest = key.replace(".", "_").replace("-", "_")
        action = actions.get(dest)
        if action is None:
            raise ModelError(f"{path}: unknown config key {key!r}")
        defaults[dest] = key_value(pairs, key, lambda raw: _coerce(action, raw), path)
    subparser.set_defaults(**defaults)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ModelError(f"missing required option(s): {flags} "
                         "(set as flag or config key)")


class _DomainError(argparse.ArgumentTypeError, ValueError):
    """A flag value outside the flag's domain: argparse reports it as given,
    and a config value as a bad value of its key."""


def _number(kind=float, low=None, strict=False, even=False, unit=None):
    """An argparse ``type=``: a finite ``kind`` (float or int) that is above
    ``low`` (``strict``) or at least ``low``, and even if ``even``; anything
    else is an error that names that domain."""
    domain = "an even integer" if even else "an integer" if kind is int else "a finite number"
    if low is not None:
        domain += f" {'>' if strict else '>='} {low}"
    if unit:
        domain += f" ({unit})"

    def convert(text):
        try:
            x = kind(text)
        except ValueError:
            x = math.nan
        if not (math.isfinite(x) and (low is None or (x > low if strict else x >= low))
                and not (even and x % 2)):
            raise _DomainError(f"must be {domain}, got {text}")
        return x
    return convert


# each numeric flag declares its domain with one of these, so a value no
# solve can use is refused at parse time, from the command line or a config
# file; a scenario loop section converts its keys with the objects of the
# loop flags of those names (v-from and v-to are level indices)
_FINITE = _number()
_POSITIVE = _number(low=0, strict=True)
_NON_NEGATIVE = _number(low=0)
_CAP = _number(low=0, strict=True, unit="10^13 W/cm^2")
_LEVEL = _number(int, low=0)
_COUNT = _number(int, low=0, strict=True)
_BLOCKS = _number(int, low=2, even=True)
_LOOP_SECTION = {"lambda0": _POSITIVE, "d-lambda": _FINITE, "i-max": _POSITIVE,
                 "t-f": _POSITIVE, "n-steps": _COUNT, "v-from": _LEVEL,
                 "v-to": _LEVEL}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line like every other refusal of ``main``:
    ``error: ...`` first, then the usage.  Any negative float spelling
    (``-1e-3``, ``-inf``) is a value, where argparse takes only ``-5`` and
    ``-.5`` and reads the rest as option names."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)$", re.IGNORECASE)

    def error(self, message):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


# ------------------------------------------------------------- commands

def _cached(path, key, compute):
    """The record of ``key`` in the solve cache at ``path``, from
    ``compute()`` and stored on a miss; returns the record with its
    ``from_cache`` flag, and the summary tag of a hit."""
    cache = SolveCache(path)
    rec = cache.get(key)
    cached = rec is not None
    if not cached:
        rec = compute()
        cache.put(key, rec)
        cache.flush()
    return {**rec, "from_cache": cached}, " [cache]" if cached else ""


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def cmd_levels(args, model, grid):
    """Field-free level table, upper-well curves over a wavelength grid,
    and the crossing-diagram overlay."""
    scan = args.lambda_max > args.lambda_min
    if scan and args.lambda_min <= 0:
        raise ModelError(f"--lambda-min must be positive (nm) when the curve "
                         f"scan runs, got {args.lambda_min}")
    levels = field_free_levels(model, grid)
    truncated = args.v_max is not None and args.v_max >= len(levels)
    if args.v_max is not None:
        levels = levels[:args.v_max + 1]
    _write_csv(os.path.join(args.out, "levels.csv"), ["v", "energy_hartree"],
               [[lv.v, f"{lv.energy:.12g}"] for lv in levels])

    lam_grid = []
    if scan:
        lam_grid = list(np.arange(args.lambda_min,
                                  args.lambda_max + 0.5 * args.lambda_step,
                                  args.lambda_step))
    curves = {}
    rows = []
    for lam in lam_grid:
        ls = adiabatic_levels(model, FieldPoint(lam, args.curve_intensity),
                              args.vplus_max, grid)
        for lv in ls:
            rows.append([f"{lam:.12g}", lv.v, f"{lv.energy:.12g}"])
            curves.setdefault(lv.v, []).append((lam, lv.energy))
    _write_csv(os.path.join(args.out, "well_curves.csv"),
               ["lambda_nm", "v_plus", "energy_hartree"], rows)

    if lam_grid:
        series = [(f"v+ = {vp}", [p[0] for p in pts], [p[1] for p in pts])
                  for vp, pts in sorted(curves.items())]
        lo, hi = lam_grid[0], lam_grid[-1]
        series += [("", [lo, hi], [lv.energy, lv.energy]) for lv in levels]
        x_label = "wavelength (nm)"
    else:
        series = [("levels", [lv.v for lv in levels],
                   [lv.energy for lv in levels])]
        x_label = "v"
    line_plot(os.path.join(args.out, "levels.svg"), series,
              title=f"{model.name}: bound levels and upper-well curves",
              x_label=x_label, y_label="E (hartree)")

    results = {"n_levels": len(levels), "truncated": truncated,
               "levels": [{"v": lv.v, "energy_hartree": lv.energy}
                          for lv in levels],
               "n_curve_points": len(rows)}
    return (results, f"{len(levels)} bound levels, {len(rows)} curve points "
            f"-> {args.out}", 0)


def cmd_adiabatic(args, model, grid):
    """Dressed adiabatic potentials and upper-well levels at one field
    point."""
    _require(args, "wavelength", "intensity")
    field = FieldPoint(args.wavelength, args.intensity)
    ref = model.vg_curve.asymptote
    r = np.linspace(grid.r_min, grid.r_max, 2001)
    upper, lower = adiabatic_potentials(model, field, r)
    _write_csv(os.path.join(args.out, "adiabatic_curves.csv"),
               ["r_bohr", "v_plus_hartree", "v_minus_hartree"],
               [[f"{ri:.12g}", f"{up:.12g}", f"{lo:.12g}"]
                for ri, up, lo in zip(r, upper, lower)])

    ls = adiabatic_levels(model, field, args.vplus_max, grid)
    _write_csv(os.path.join(args.out, "adiabatic_levels.csv"),
               ["v_plus", "energy_hartree"],
               [[lv.v, f"{lv.energy:.12g}"] for lv in ls])

    series = [("V+", list(r), list(upper - ref)),
              ("V-", list(r), list(lower - ref))]
    series += [("", [grid.r_min, grid.r_max], [lv.energy, lv.energy]) for lv in ls]
    line_plot(os.path.join(args.out, "adiabatic.svg"), series,
              title=f"{model.name} dressed adiabats at {args.wavelength:g} nm",
              x_label="R (bohr)", y_label="E - E_diss (hartree)")

    results = {"n_levels": len(ls),
               "levels": [{"v_plus": lv.v, "energy_hartree": lv.energy}
                          for lv in ls]}
    return (results, f"{len(ls)} upper-well levels at {args.wavelength:g} nm, "
            f"{args.intensity:g} W/cm^2 -> {args.out}", 0)


def cmd_resonance(args, model, grid):
    """One Floquet resonance, continued in intensity from the field-free
    level."""
    _require(args, "wavelength", "intensity", "v")
    field = FieldPoint(args.wavelength, args.intensity)
    key = SolveCache.key(model, grid, "resonance",
                         wavelength=args.wavelength, intensity=args.intensity,
                         v=args.v, n_blocks=args.n_blocks, steps=args.steps)

    def solve():
        levels = field_free_levels(model, grid)
        if args.v >= len(levels):
            raise ModelError(f"v={args.v} outside the {len(levels)} "
                             "bound levels")
        res = ramp_resonance(model, field, levels[args.v].energy, args.steps,
                             grid, n_blocks=args.n_blocks)
        system = build_system(model, field, grid, args.n_blocks)
        return {"energy_re_hartree": res.energy.real,
                "energy_im_hartree": res.energy.imag,
                "width_hartree": res.width,
                "width_invcm": res.width_invcm,
                "character": classify_resonance(model, field, res.energy, grid,
                                                args.n_blocks),
                "residual": abs(system.determinant(res.energy))}

    rec, tag = _cached(args.cache, key, solve)
    return (rec,
            f"E = {rec['energy_re_hartree']:.10g} hartree, "
            f"Gamma = {rec['width_invcm']:.6g} cm^-1 ({rec['character']}){tag}",
            0)


def _ep_key(model, grid, args, cand):
    # keyed on the candidate identity, not the exact seed wavelength, so a
    # rerun with a shifted scan window still hits
    return SolveCache.key(model, grid, "ep", v=cand.v,
                          v_partner=cand.v_partner, v_plus=cand.v_plus,
                          lambda_bucket=round(cand.lambda_guess),
                          n_blocks=args.n_blocks, i_cap=args.i_cap)


def _refine(model, cand, grid, n_blocks, i_cap):
    """refine_ep, with a refinement failure returned as its message."""
    try:
        return refine_ep(model, cand, grid, n_blocks=n_blocks, i_cap=i_cap)
    except (ConvergenceError, ModelError) as ex:
        return str(ex)


def _refinements(args, model, grid, todo):
    """The _refine result of each (key, candidate) of ``todo``, in order and
    as each arrives; with --jobs > 1 from a process pool that stays open
    while they are consumed, and to which the model pickles."""
    refine = functools.partial(_refine, model, grid=grid, n_blocks=args.n_blocks,
                               i_cap=args.i_cap)
    cands = [cand for _, cand in todo]
    if args.jobs > 1 and cands:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            yield from pool.map(refine, cands)
    else:
        yield from map(refine, cands)


def cmd_ep_map(args, model, grid):
    """Locate and refine every coalescence seeded inside the window."""
    lo, hi = args.window
    if not lo < hi:
        raise ModelError(f"--window needs LO < HI (nm), got {lo:g} {hi:g}")
    cache = SolveCache(args.cache)
    cands = approximate_eps(model, range(args.v_max + 1),
                            range(args.vplus_max + 1), (lo, hi), grid)
    records, todo = [], []
    for cand in cands:
        key = _ep_key(model, grid, args, cand)
        rec = cache.get(key)
        if rec is None:
            todo.append((key, cand))
        else:
            # the key holds --n-blocks, which records cached before they
            # stated it lack
            records.append(EPRecord.from_dict({"n_blocks": args.n_blocks, **rec}))
    n_hits = len(records)

    # workers only compute; cache and file writes stay in this process, and
    # each record is on disk as soon as it arrives, so a stopped map resumes
    failures = []
    for (key, cand), result in zip(todo, _refinements(args, model, grid, todo)):
        if isinstance(result, EPRecord):
            records.append(result)
            cache.put(key, result.to_dict())
            cache.flush()
        else:
            failures.append((cand, result))
            print(f"warning: refinement failed for pair ({cand.v},"
                  f"{cand.v_partner}) v+={cand.v_plus}: {result}", file=sys.stderr)

    ordered = [r for band in cluster_bands(records)
               for r in sorted(band, key=lambda r: r.pair[0])]
    records_to_csv(ordered, os.path.join(args.out, "ep_map.csv"))
    ep_map_plot(os.path.join(args.out, "ep_map.svg"), ordered,
                title=f"{model.name} coalescence map")
    results = {"n_records": len(ordered), "n_cached": n_hits,
               "n_failed": len(failures),
               "failures": [{"pair": [c.v, c.v_partner], "v_plus": c.v_plus,
                             "lambda_guess": c.lambda_guess, "reason": msg}
                            for c, msg in failures],
               "records": [r.to_dict() for r in ordered]}
    return (results, f"{len(ordered)} coalescences ({n_hits} from cache, "
            f"{len(failures)} failed) -> {args.out}", 0)


def cmd_ep_refine(args, model, grid):
    """Refine a single candidate to its coalescence point."""
    _require(args, "v", "v_plus", "lambda_guess")
    partner = args.v_partner if args.v_partner is not None else args.v + 1
    cand = EPCandidate(v=args.v, v_partner=partner, v_plus=args.v_plus,
                       lambda_guess=args.lambda_guess)
    rec, tag = _cached(
        args.cache, _ep_key(model, grid, args, cand),
        lambda: refine_ep(model, cand, grid, n_blocks=args.n_blocks,
                          i_cap=args.i_cap).to_dict())
    return (rec,
            f"EP({cand.v},{cand.v_partner}) at lambda = "
            f"{rec['lambda_nm']:.6f} nm, I = "
            f"{rec['intensity_1e13Wcm2']:.6f} x10^13 W/cm^2 "
            f"(gap {rec['gap_residual']:.2e}){tag}", 0)


def cmd_loop(args, model, grid):
    """Transport one resonance around a parameter-plane loop."""
    _require(args, "lambda0", "d_lambda", "i_max", "v_start")
    spec = LoopSpec(lambda0=args.lambda0, d_lambda=args.d_lambda,
                    i_max=args.i_max, t_f=args.t_f, n_steps=args.n_steps)
    # EP records give intensity in 10^13 W/cm^2, like the samples and --i-max
    eps = records_from_csv(args.ep_csv) if args.ep_csv else []
    for r in eps:
        if r.n_blocks not in (None, args.n_blocks):
            print(f"warning: {args.ep_csv}: EP ({r.pair[0]},{r.pair[1]}) at "
                  f"{r.lambda_ep:.3f} nm was refined with {r.n_blocks} photon "
                  f"blocks, this loop uses {args.n_blocks}", file=sys.stderr)
    partial = False
    try:
        traj = follow_resonance(model, spec, args.v_start, grid,
                                n_blocks=args.n_blocks, reverse=args.reverse)
    except ContinuationError as ex:
        traj = ex.partial
        partial = True
        print(f"warning: {ex}; writing partial outputs", file=sys.stderr)

    p_end = traj.survival_at_end()
    trajectory_to_csv(traj, os.path.join(args.out, "loop.csv"))

    markers = [(traj.samples[0].wavelength, traj.samples[0].intensity, "start")]
    markers += [(r.lambda_ep, r.intensity_ep, f"({r.pair[0]},{r.pair[1]})")
                for r in eps]
    line_plot(os.path.join(args.out, "loop_contour.svg"),
              [("contour", [s.wavelength for s in traj.samples],
                [s.intensity for s in traj.samples])],
              markers=markers, title="parameter-plane contour",
              x_label="wavelength (nm)", y_label="intensity (10^13 W/cm^2)")
    line_plot(os.path.join(args.out, "loop_energy.svg"),
              [("trajectory", [s.energy.real for s in traj.samples],
                [s.width_invcm for s in traj.samples])],
              title="complex-energy trajectory",
              x_label="Re E (hartree)", y_label="width (cm^-1)")
    line_plot(os.path.join(args.out, "loop_survival.svg"),
              [("P_ND", [t for t, _ in traj.p_nd],
                [p for _, p in traj.p_nd])],
              title="non-dissociated fraction",
              x_label="t (fs)", y_label="P_ND")

    results = {"v_start": traj.v_start, "v_end": traj.v_end,
               "exchanged": traj.exchanged, "p_nd_final": p_end,
               "n_samples": len(traj.samples), "partial": partial,
               "characters": [[phi, c] for phi, c in traj.characters]}
    tag = " [partial]" if partial else ""
    return (results, f"v = {traj.v_start} -> {traj.v_end}, "
            f"P_ND(t_f) = {p_end:.4g}{tag}", 3 if partial else 0)


def cmd_scenario(args, model, grid):
    """Chain loops from a config file and compare survivals."""
    if not args.loop_sections:
        raise ModelError("scenario needs loop sections in the config file "
                         "(loop1.lambda0 = ..., loop1.v-from = ..., ...)")
    loops = []
    for idx in sorted(args.loop_sections):
        sec = args.loop_sections[idx]
        unknown = sec.keys() - _LOOP_SECTION.keys()
        if unknown:
            raise ModelError(f"loop{idx} section: unknown key {min(unknown)!r}")

        def get(key, default=None):
            return key_value(sec, key, _LOOP_SECTION[key], f"loop{idx} section", default)

        spec = LoopSpec(lambda0=get("lambda0"), d_lambda=get("d-lambda"),
                        i_max=get("i-max"), t_f=get("t-f", args.t_f),
                        n_steps=get("n-steps", args.n_steps))
        loops.append((spec, (get("v-from"), get("v-to"))))

    trajectories = run_scenario(model, loops, grid, n_blocks=args.n_blocks)
    transfers = [(t.v_start, t.v_end) for t in trajectories]
    survivals = [t.survival_at_end() for t in trajectories]
    cumulative = float(np.prod(survivals))

    _write_csv(os.path.join(args.out, "scenario.csv"),
               ["loop", "v_from", "v_to", "lambda0_nm", "d_lambda_nm",
                "i_max_1e13Wcm2", "t_f_fs", "p_nd"],
               [[i, va, vb, f"{spec.lambda0:.12g}", f"{spec.d_lambda:.12g}",
                 f"{spec.i_max:.12g}", f"{spec.t_f:.12g}", f"{p:.12g}"]
                for i, ((spec, _), (va, vb), p) in enumerate(
                    zip(loops, transfers, survivals), 1)])

    series = []
    t_off, p_prod = 0.0, 1.0
    for i, traj in enumerate(trajectories, 1):
        ts = [t_off + t for t, _ in traj.p_nd]
        ps = [p_prod * p for _, p in traj.p_nd]
        series.append((f"loop {i}", ts, ps))
        t_off, p_prod = ts[-1], ps[-1]
        trajectory_to_csv(traj, os.path.join(args.out, f"loop{i}.csv"))
    line_plot(os.path.join(args.out, "scenario_survival.svg"), series,
              title="chained survival", x_label="t (fs)", y_label="P_ND")

    results = {"transfers": [list(t) for t in transfers],
               "survivals": survivals, "cumulative": cumulative}
    return (results, f"{len(loops)} loops, transfers "
            f"{' '.join(f'{a}->{b}' for a, b in transfers)}, "
            f"cumulative P_ND = {cumulative:.4g}", 0)


# --------------------------------------------------------------- parser

def _build_parser():
    parser = _Parser(
        prog="floqep",
        description="Laser-dressed molecular resonances, coalescence maps, "
                    "and parameter-plane loop transport.")
    parser.add_argument("--version", action="version",
                        version=f"floqep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")
    subparsers = {}
    g = RadialGrid()

    def add_command(name, func, help_, cache=False):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("--model", default="h2plus",
                        help="bundled model name or descriptor file path")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--config",
                        help="key = value config file; flags win over it")
        if cache:
            sp.add_argument("--cache",
                            help="JSON cache file for resumable solves")
        sp.add_argument("--grid.r-min", dest="grid_r_min", type=_FINITE,
                        default=g.r_min, help="grid start (bohr)")
        sp.add_argument("--grid.r-max", dest="grid_r_max", type=_FINITE,
                        default=g.r_max, help="grid end (bohr)")
        sp.add_argument("--grid.n-points", dest="grid_n_points", type=_COUNT,
                        default=g.n_points, help="number of grid points")
        sp.add_argument("--grid.ecs-radius", dest="grid_ecs_radius",
                        type=_FINITE, default=g.ecs_radius,
                        help="complex-scaling corner (bohr)")
        sp.add_argument("--grid.ecs-angle", dest="grid_ecs_angle",
                        type=_FINITE, default=g.ecs_angle,
                        help="complex-scaling angle (rad)")
        sp.set_defaults(func=func)
        subparsers[name] = sp
        return sp

    sp = add_command("levels", cmd_levels,
                     "field-free levels and upper-well curves")
    sp.add_argument("--v-max", type=_LEVEL, default=None,
                    help="highest level to report (default: all)")
    sp.add_argument("--lambda-min", type=_NON_NEGATIVE, default=0.0,
                    help="curve scan start (nm); scan off when empty window")
    sp.add_argument("--lambda-max", type=_NON_NEGATIVE, default=0.0,
                    help="curve scan end (nm)")
    sp.add_argument("--lambda-step", type=_POSITIVE, default=25.0,
                    help="curve scan step (nm)")
    sp.add_argument("--vplus-max", type=_LEVEL, default=3,
                    help="highest upper-well level in the curves")
    sp.add_argument("--curve-intensity", type=_POSITIVE,
                    default=DIAGNOSTIC_INTENSITY,
                    help="probe intensity for the curves (W/cm^2)")

    sp = add_command("adiabatic", cmd_adiabatic,
                     "dressed adiabatic potentials at one field point")
    sp.add_argument("--wavelength", type=_POSITIVE, help="nm")
    # with no field the dressed adiabats cross, and no upper well exists
    sp.add_argument("--intensity", type=_POSITIVE, help="W/cm^2")
    sp.add_argument("--vplus-max", type=_LEVEL, default=8)

    sp = add_command("resonance", cmd_resonance, "single Floquet solve",
                     cache=True)
    sp.add_argument("--wavelength", type=_POSITIVE, help="nm")
    sp.add_argument("--intensity", type=_NON_NEGATIVE, help="W/cm^2")
    sp.add_argument("--v", type=_LEVEL, help="field-free level to continue from")
    sp.add_argument("--steps", type=_COUNT, default=8,
                    help="intensity continuation steps")
    sp.add_argument("--n-blocks", type=_BLOCKS, default=2)

    sp = add_command("ep-map", cmd_ep_map,
                     "locate and refine coalescences in a window", cache=True)
    sp.add_argument("--jobs", type=_COUNT, default=1,
                    help="worker processes for refinements")
    sp.add_argument("--v-max", type=_LEVEL, default=16)
    sp.add_argument("--window", type=_POSITIVE, nargs=2, default=(110.0, 900.0),
                    metavar=("LO", "HI"), help="wavelength window (nm)")
    sp.add_argument("--vplus-max", type=_LEVEL, default=8)
    sp.add_argument("--i-cap", type=_CAP, default=0.6,
                    help="intensity scan ceiling (10^13 W/cm^2)")
    sp.add_argument("--n-blocks", type=_BLOCKS, default=2)

    sp = add_command("ep-refine", cmd_ep_refine,
                     "refine one coalescence candidate", cache=True)
    sp.add_argument("--v", type=_LEVEL)
    sp.add_argument("--v-partner", type=_LEVEL, default=None,
                    help="default: v + 1")
    sp.add_argument("--v-plus", type=_LEVEL)
    sp.add_argument("--lambda-guess", type=_POSITIVE, help="nm")
    sp.add_argument("--i-cap", type=_CAP, default=0.6)
    sp.add_argument("--n-blocks", type=_BLOCKS, default=2)

    sp = add_command("loop", cmd_loop,
                     "transport a resonance around a parameter-plane loop")
    sp.add_argument("--lambda0", type=_POSITIVE, help="nm")
    sp.add_argument("--d-lambda", type=_FINITE,
                    help="wavelength radius (nm); sign sets handedness")
    sp.add_argument("--i-max", type=_POSITIVE, help="peak intensity "
                    "(10^13 W/cm^2)")
    sp.add_argument("--t-f", type=_POSITIVE, default=30.0,
                    help="pulse duration (fs)")
    sp.add_argument("--n-steps", type=_COUNT, default=200)
    sp.add_argument("--v-start", type=_LEVEL)
    sp.add_argument("--reverse", action="store_true",
                    help="traverse the contour backwards")
    sp.add_argument("--n-blocks", type=_BLOCKS, default=2)
    sp.add_argument("--ep-csv",
                    help="coalescence CSV to mark on the contour plot; a "
                    "record refined at another --n-blocks is warned about")

    sp = add_command("scenario", cmd_scenario,
                     "chain loops from a config file")
    sp.add_argument("--t-f", type=_POSITIVE, default=30.0,
                    help="default pulse duration (fs) for loop sections")
    sp.add_argument("--n-steps", type=_COUNT, default=200,
                    help="default angle steps for loop sections")
    sp.add_argument("--n-blocks", type=_BLOCKS, default=2)

    return parser, subparsers


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:      # --help, --version or a bad command line
        return ex.code
    try:
        loop_sections = {}
        if args.config:
            with open(args.config) as fh:
                pairs = parse_key_values(fh.read(), args.config)
            plain, loop_sections = _split_loop_sections(pairs)
            if loop_sections and args.command != "scenario":
                raise ModelError("loop sections only apply to the scenario "
                                 "command")
            _apply_config(subparsers[args.command], plain, args.config)
            args = parser.parse_args(argv)
        args.loop_sections = loop_sections
        model = load_molecule(args.model)
        grid = RadialGrid(args.grid_r_min, args.grid_r_max,
                          args.grid_n_points, args.grid_ecs_radius,
                          args.grid_ecs_angle)
        os.makedirs(args.out, exist_ok=True)
        results, summary, code = args.func(args, model, grid)
        doc = {"command": args.command,
               "config": {k: v for k, v in vars(args).items()
                          if k not in ("func", "command")},
               "results": results,
               "provenance": {"model": model.name,
                              "model_hash": model.fingerprint,
                              "code_version": __version__}}
        with open(os.path.join(args.out, args.command.replace("-", "_")
                               + ".json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(summary)
        return code
    except (ModelError, GridError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except (ConvergenceError, ContinuationError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
