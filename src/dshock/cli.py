"""Scenario-driven command line entry point.

Subcommands
-----------
run        execute any scenario config (riemann1d, spherical, planar,
           oracle, weakcheck, geom-suite) into an output directory with
           CSVs, a report.json, a gnuplot script and a manifest.json of
           checksums. It is the one command that takes a config file.
riemann    solve two-state 1-D data given as flags; write one CSV.
oracle     run a sticky-particle oracle preset; write the cluster history.
weakcheck  evaluate the weak identities of a solution config; write a
           JSON report.

Each scenario kind has a runner ``_run_<kind>(obj, seed)`` that takes a
validated document, returns ``(checks, payload, files)`` and writes nothing.
``files`` maps an output name to a ``(names, data)`` table or to text.
``_validated_seed`` validates a document once, refusing any key its kind's
schema does not name, and resolves the seed its runner takes.
``_execute_scenario`` runs a config file that way and is the one writer of
scenario outputs: it writes ``files``, ``report.json`` and
``manifest.json``, and a run that fails, from an unreadable config file to
an unexpected exception in a runner, leaves only the last two. ``riemann``,
``oracle`` and ``weakcheck`` map the flags given to a document of their kind,
run it the same way and write the one file each promises; a flag left out
stays out of the document, so its runner's default applies.
``write_csv`` refuses a table with a value that is not finite.

Exit codes: 0 success, 2 config/schema problem, 3 numerical failure or
any unexpected exception (one line on stderr, no traceback),
4 theorem-check failure (including data that admits no overcompressive
front). Outputs are deterministic for a fixed (scenario, seed); CSVs use
17-significant-digit scientific notation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .balance import audit
from .bumps import BumpFactor, TensorBump
from .errors import (
    DShockError,
    InvalidBatteryError,
    InvalidParameterError,
    NoDeltaShockError,
    NonFiniteOutputError,
    ScenarioError,
)
from .geometry import (
    MovingBall,
    MovingPlaneFront,
    MovingSphereFront,
    check_integration_by_parts,
    check_surface_transport,
    check_volume_transport,
    mean_curvature,
)
from .riemann1d import RiemannData1D
from .scenario import (
    load_scenario,
    planar_from_spec,
    solution_from_spec,
    spherical_setup_from_spec,
    validate_scenario,
)
from .solutions import DeltaShockSolution1D, PlanarSolution
from .spherical import integrate_front, steady_converging_field
from .sticky_oracle import delta_cluster_estimate, radial_shells, sample_riemann
from .weakcheck import evaluate_identities, make_battery

# A CLI process keeps every imported module until it exits. Frozen, that heap
# is skipped by every later collection, the one at interpreter shutdown too.
gc.freeze()

__all__ = ["main", "build_parser"]

_FMT = "%.16e"
_INT_COLUMNS = {"entropy_ok", "entropy_strict"}


def write_csv(path, names, data) -> None:
    data = np.atleast_2d(np.asarray(data, dtype=float))
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise NonFiniteOutputError(
            f"{Path(path).name}: column '{names[col]}' holds {data[row, col]} in data row {row + 1}"
        )
    fmt = ["%d" if name in _INT_COLUMNS else _FMT for name in names]
    # An open handle spares savetxt its path lookup through np.lib._datasource.
    with open(path, "w") as fh:
        np.savetxt(fh, data, fmt=fmt, delimiter=",", header=",".join(names), comments="")


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if np.isfinite(v) else repr(v)
    return x


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def write_manifest(outdir: Path, scenario_obj, seed: int) -> None:
    files = {}
    for p in sorted(outdir.iterdir()):
        if p.name == "manifest.json" or not p.is_file():
            continue
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        files[p.name] = {"sha256": digest, "bytes": p.stat().st_size}
    (outdir / "manifest.json").write_text(
        _json_text({"files": files, "scenario": scenario_obj, "seed": seed})
    )


def _write(path, content) -> None:
    """Write text, or a ``(names, data)`` table as CSV, creating the parent."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(content, str):
        path.write_text(content)
    else:
        write_csv(path, *content)


def _verdict(checks: dict) -> dict:
    """Report fields for ``checks``; a check that is None was not applicable."""
    failed = sorted(name for name, ok in checks.items() if ok is False)
    return {"checks": checks, "failed": failed, "passed": not failed}


def _tol(obj: dict, key: str, default: float | None = None) -> float | None:
    """The scenario's tolerance ``key``, else ``default``.

    Balance checks pass no default, so ``BalanceReport`` applies its own.
    """
    value = obj.get("tolerances", {}).get(key)
    return default if value is None else float(value)


def _balance_checks(obj: dict, rep, files: dict, momentum: bool = True) -> dict:
    """Balance-law checks of the audit ``rep``; its table joins ``files``.

    Spherical audits pass ``momentum=False``: P = p = 0 by symmetry.
    """
    files["balance.csv"] = rep.columns()
    checks = {
        "mass_conservation": rep.mass_conserved(_tol(obj, "mass_drift")),
        "energy_monotonicity": rep.energy_monotone(_tol(obj, "energy_slack")),
    }
    if momentum:
        checks["momentum_conservation"] = rep.momentum_conserved(_tol(obj, "momentum_drift"))
    return checks


_PLOT_HEADER = (
    "set datafile separator \",\"\n"
    "set key autotitle columnhead\n"
    "set terminal pngcairo size 1000,700\n"
)


def _plot_riemann(with_balance: bool) -> str:
    body = _PLOT_HEADER + (
        "set output \"riemann.png\"\n"
        "set multiplot layout 2,1\n"
        "set xlabel \"t\"\n"
        "plot \"riemann.csv\" using 1:2 with lines title \"front position\", \\\n"
        "     \"riemann.csv\" using 1:3 with lines title \"front velocity\"\n"
        "plot \"riemann.csv\" using 1:4 with lines title \"front mass e\"\n"
        "unset multiplot\n"
    )
    if with_balance:
        body += (
            "set output \"balance.png\"\n"
            "set multiplot layout 2,1\n"
            "plot \"balance.csv\" using 1:8 with lines title \"M + m\", \\\n"
            "     \"balance.csv\" using 1:2 with lines title \"M\", \\\n"
            "     \"balance.csv\" using 1:3 with lines title \"m\"\n"
            "plot \"balance.csv\" using 1:10 with lines title \"W + w\"\n"
            "unset multiplot\n"
        )
    return body


_PLOT_SPHERICAL = _PLOT_HEADER + (
    "set output \"spherical.png\"\n"
    "set multiplot layout 2,1\n"
    "set xlabel \"t\"\n"
    "plot \"spherical.csv\" using 1:2 with lines title \"phi\", \\\n"
    "     \"spherical.csv\" using 1:3 with lines title \"u_delta\"\n"
    "plot \"spherical.csv\" using 1:5 with lines title \"m\", \\\n"
    "     \"spherical.csv\" using 1:6 with lines title \"M\", \\\n"
    "     \"spherical.csv\" using 1:7 with lines title \"M+m\"\n"
    "unset multiplot\n"
)

_PLOT_PLANAR = _PLOT_HEADER + (
    "set output \"planar.png\"\n"
    "set xlabel \"t\"\n"
    "plot \"planar.csv\" using 1:2 with lines title \"front offset\", \\\n"
    "     \"planar.csv\" using 1:4 with lines title \"front mass e\", \\\n"
    "     \"planar.csv\" using 1:5 with lines title \"tangential deficit\"\n"
)

_RIEMANN_COLUMNS = ["t", "phi", "u_delta", "e", "mass_deficit", "momentum_deficit"]


def _run_riemann1d(obj: dict, seed: int):
    sol = solution_from_spec(obj)
    times = np.linspace(0.0, sol.t_end, int(obj.get("samples", 41)))
    phi, e, u_delta, _ = sol.at(times)
    table = np.column_stack([times, phi, u_delta, e, *sol.deficits(times)])
    files = {"riemann.csv": (_RIEMANN_COLUMNS, table)}
    checks: dict = {}
    _, e_final, u_delta_final, _ = sol.at(sol.t_end)
    payload = {"t_end": sol.t_end, "u_delta_final": u_delta_final, "e_final": e_final}
    if sol.support0 is not None:
        rep = audit(sol, times)
        checks = _balance_checks(obj, rep, files)
        strict_all = bool(np.all(rep.entropy_strict))
        checks["concentration"] = rep.concentration_holds() if strict_all else None
        payload["entropy_strict_everywhere"] = strict_all
        payload["mass_drift"] = rep.mass_drift
        payload["momentum_drift"] = rep.momentum_drift
    files["plot.gp"] = _plot_riemann(sol.support0 is not None)
    return checks, payload, files


def _run_spherical(obj: dict, seed: int):
    inner, outer, init, kwargs = spherical_setup_from_spec(obj)
    traj = integrate_front(inner, outer, init, **kwargs)
    times = np.linspace(0.0, traj.t_end, int(obj.get("samples", 25)))
    rep = audit(traj, times, box=obj["annulus"])
    phi, e, u_delta, _ = traj.at(times)
    rows = np.column_stack(
        [times, phi, u_delta, e, rep.m, rep.M, rep.sum_mass, rep.entropy_strict.astype(float)]
    )
    files = {
        "spherical.csv": (["t", "phi", "u_delta", "e", "m", "M", "M+m", "entropy_ok"], rows),
        "plot.gp": _PLOT_SPHERICAL,
    }
    checks = _balance_checks(obj, rep, files, momentum=False)
    strict_all = bool(np.all(rep.entropy_strict))
    checks["concentration"] = rep.concentration_holds() if strict_all else None
    payload = {
        "t_stop": traj.t_end,
        "focused": traj.focused,
        "entropy_violated": traj.entropy_violated,
        "passive": traj.passive,
        "mass_drift": rep.mass_drift,
        "entropy_strict_everywhere": strict_all,
    }
    return checks, payload, files


def _random_rotation(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def _run_planar(obj: dict, seed: int):
    cand = planar_from_spec(obj)
    base = cand.base
    times = np.linspace(0.0, base.t_end, int(obj.get("samples", 41)))
    dim = cand.dim
    tan = cand.tangential_deficit(times)
    phi, e, u_delta, _ = base.at(times)
    rows = np.column_stack([times, phi, u_delta, e, np.linalg.norm(tan, axis=1), tan])
    names = ["t", "phi", "u_delta", "e", "tan_deficit"] + [
        f"tan_deficit_{j + 1}" for j in range(dim - 1)
    ]
    files = {"planar.csv": (names, rows), "plot.gp": _PLOT_PLANAR}
    checks: dict = {}
    payload = {
        "dim": dim,
        "frame": cand.frame,
        "tangential_deficit_final": cand.tangential_deficit(base.t_end),
    }
    if base.support0 is not None:
        checks = _balance_checks(obj, audit(base, times), files)
    if obj.get("check_rotation", True):
        rot = _random_rotation(dim, seed)
        rotated_obj = dict(obj)
        rotated_obj["U_minus"] = list(rot @ np.asarray(obj["U_minus"], dtype=float))
        rotated_obj["U_plus"] = list(rot @ np.asarray(obj["U_plus"], dtype=float))
        rotated_obj["normal"] = list(rot @ np.asarray(obj["normal"], dtype=float))
        cand2 = planar_from_spec(rotated_obj)
        # Both fronts at every sample time after t = 0: U_delta = u_delta nu, e
        # and the size of the tangential deficit must agree up to the rotation.
        (_, e1, g1, _), (_, e2, g2, _) = (c.base.at(times[1:]) for c in (cand, cand2))
        tan1, tan2 = (c.tangential_deficit(times[1:]) for c in (cand, cand2))
        # A row's vecdot is the dot product norm takes of one vector: same bits.
        d1, d2 = (np.sqrt(np.vecdot(tan, tan)) for tan in (tan1, tan2))
        turn = np.abs(np.outer(g1, cand.nu) @ rot.T - np.outer(g2, cand2.nu))
        err = float(max(np.max(turn), np.max(np.abs(e1 - e2)), np.max(np.abs(d1 - d2))))
        checks["rotation_covariance"] = err <= _tol(obj, "rotation", 1e-12)
        payload["rotation_error"] = err
    return checks, payload, files


def _run_oracle(obj: dict, seed: int):
    preset = obj["preset"]
    if preset == "spherical" and "mode" in obj:
        raise ScenarioError("the spherical oracle preset does not read 'mode'")
    N = obj.get("N")
    if preset == "riemann":
        data = RiemannData1D(rho_l=4.0, rho_r=1.0, u_l=1.0, u_r=-1.0)
        mode = obj.get("mode", "midpoint")
        ps = sample_riemann(data, L=2.0, N=200000 if N is None else N, mode=mode, seed=seed)
        names = ["t", "position_hat", "u_delta_hat", "mass_hat"]
    else:
        ps = radial_shells(
            None,
            steady_converging_field(3, (1.0, 3.5)),
            n=3,
            N=2000 if N is None else N,
            box=(1.0, 3.5),
            front_seed=(1.0, 0.01, -0.5),
            r_min=1e-3,
        )
        names = ["t", "phi_hat", "u_delta_hat", "m_hat"]
    est = delta_cluster_estimate(ps, float(obj.get("T", 1.0)))
    rows = np.column_stack(
        [est.times, est.position_history, est.velocity_history, est.mass_history]
    )
    payload = {
        "preset": preset,
        "particles": ps.count,
        "merges": ps.merges,
        "truncated": ps.truncated,
        "u_delta_hat": est.u_delta_hat,
        "mass_hat": est.mass_hat,
        "position_hat": est.position_hat,
    }
    return {}, payload, {"oracle.csv": (names, rows)}


def _battery_box(sol) -> list:
    if isinstance(sol, PlanarSolution):
        base = sol.base
        lo, hi = _spatial_window(base)
        box = [(lo, hi)] + [(-1.5, 1.5)] * (sol.dim - 1)
        return box + [(0.0, base.t_end * (1.0 - 1e-9))]
    lo, hi = _spatial_window(sol)
    return [(lo, hi), (0.0, sol.t_end * (1.0 - 1e-9))]


def _spatial_window(sol: DeltaShockSolution1D) -> tuple[float, float]:
    if sol.support0 is not None:
        return sol.spatial_bounds(0.1)
    ph = sol.phi(np.linspace(0.0, sol.t_end, 9))
    spread = (abs(sol.u_l) + abs(sol.u_r) + 1.0) * sol.t_end + 1.0
    return float(np.min(ph)) - spread, float(np.max(ph)) + spread


def _run_weakcheck(obj: dict, seed: int):
    sol = solution_from_spec(obj["solution"])
    k = int(obj.get("levels", 5))
    bspec = obj.get("battery", {})
    battery = make_battery(
        _battery_box(sol),
        count=int(bspec.get("count", 6)),
        seed=int(bspec.get("seed", seed)),
        nonneg_count=int(bspec.get("nonneg", 2)),
    )
    res = evaluate_identities(sol, battery, levels=tuple(range(k)))
    tol = _tol(obj, "weak_residual", 1e-6)
    checks = {"weak_identities": res.max_residual < tol}
    payload = {
        "identities": list(res.identity_names),
        "levels": list(res.levels),
        "table": res.table,
        "residuals": res.residuals,
        "orders": res.orders,
        "max_residual": res.max_residual,
        "per_member": res.per_member,
        "quadrature_nodes": list(res.quadrature_nodes),
        "battery_members": len(battery.functions),
        "tolerance": tol,
    }
    return checks, payload, {"weakcheck.json": _json_text(dict(payload, checks=checks))}


def _run_geom_suite(obj: dict, seed: int):
    radii = [float(r) for r in obj.get("radii", [0.5, 1.0, 2.0])]
    if not all(np.isfinite(r) and r > 0.0 for r in radii):
        raise ScenarioError(f"geom-suite radii must be finite and positive, got {radii}")
    dims = [int(n) for n in obj.get("dims", [2, 3])]
    level = int(obj.get("level", 2))
    curvature_rows = []
    curv_err = 0.0
    for n in dims:
        for r0 in radii:
            front = MovingSphereFront(np.zeros(n), r0)
            quad = front.patch_quadrature(0.0, level=1)
            target = -(n - 1) / (2.0 * r0)
            worst = float(np.max(np.abs(mean_curvature(front, quad.nodes[:8], 0.0) - target)))
            curvature_rows.append({"n": n, "R": r0, "max_error": worst})
            curv_err = max(curv_err, worst)

    def scalar_field(pts, t):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.exp(-0.5 * np.sum(pts**2, axis=1)) * (1.0 + 0.3 * np.sin(2.0 * t))

    sphere = MovingSphereFront(
        np.zeros(2),
        lambda t: 1.0 + 0.25 * np.sin(t),
        radius_rate=lambda t: 0.25 * np.cos(t),
    )
    ball = MovingBall(
        np.zeros(2),
        lambda t: 1.0 + 0.25 * np.sin(t),
        radius_rate=lambda t: 0.25 * np.cos(t),
    )
    dts = [0.02, 0.01, 0.005]
    surf = [check_surface_transport(scalar_field, sphere, 0.4, dt, level).residual for dt in dts]
    vol = [check_volume_transport(scalar_field, ball, 0.4, dt, level).residual for dt in dts]

    def ladder_order(res):
        res = np.asarray(res, dtype=float)
        floor = 1e-12 * (1.0 + float(res.max()))
        if res.max() <= floor:
            return float("inf")
        return float(np.min(np.log2(np.maximum(res[:-1], floor) / np.maximum(res[1:], floor))))

    plane = MovingPlaneFront(np.array([1.0, 0.0]), (0.0, 0.3), window_half_width=4.0)
    phi = TensorBump(
        [BumpFactor(-1.0, 1.0), BumpFactor(-1.0, 1.0)],
        BumpFactor(0.05, 0.8),
    )
    ibp = check_integration_by_parts(scalar_field, phi, plane, t_end=1.0, level=level)

    checks = {
        "curvature": curv_err <= _tol(obj, "curvature", 1e-8),
        "surface_transport_order": ladder_order(surf) >= _tol(obj, "transport_order", 1.7),
        "volume_transport_order": ladder_order(vol) >= _tol(obj, "transport_order", 1.7),
        "integration_by_parts": ibp.residual <= _tol(obj, "ibp_residual", 1e-6),
    }
    payload = {
        "curvature": curvature_rows,
        "transport_dts": dts,
        "surface_transport_residuals": surf,
        "surface_transport_order": ladder_order(surf),
        "volume_transport_residuals": vol,
        "volume_transport_order": ladder_order(vol),
        "ibp_residual": ibp.residual,
    }
    return checks, payload, {}


_RUNNERS = {
    "riemann1d": _run_riemann1d,
    "spherical": _run_spherical,
    "planar": _run_planar,
    "oracle": _run_oracle,
    "weakcheck": _run_weakcheck,
    "geom-suite": _run_geom_suite,
}


def _validated_seed(obj: dict, seed: int | None = None) -> int:
    """The seed to run ``obj`` with, once ``obj`` is validated.

    A ``seed`` of None is the document's own ``seed``, else 0.
    """
    validate_scenario(obj)
    return int(obj.get("seed", 0)) if seed is None else seed


def _execute_scenario(args) -> int:
    """Run the config file ``args.config`` into ``args.out``; the one writer of scenario outputs."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed
    obj, kind, name, files = None, None, "", {}
    try:
        # Inside the handler, so an unreadable file or a kind or schema error
        # also leaves a report.json.
        obj = load_scenario(args.config)
        kind, name = obj.get("kind"), obj.get("name", "")
        seed = _validated_seed(obj, seed)
        checks, payload, files = _RUNNERS[kind](obj, seed)
        for fname, content in files.items():
            _write(outdir / fname, content)
    except Exception as exc:
        # A table that could not be written takes the tables before it along.
        for fname in files:
            (outdir / fname).unlink(missing_ok=True)
        code, message = _failure(exc)
        report = {"kind": kind, "name": name, "error": str(exc), "passed": False}
        if isinstance(exc, NoDeltaShockError):
            report["failed"] = ["overcompression"]
            report["failed_condition"] = (
                "overcompression requires u_plus < u_delta < u_minus across the front"
            )
        else:
            report.update(failed=["run"], error_class=type(exc).__name__, exit_code=code)
        print(message, file=sys.stderr)
    else:
        code = 0
        report = dict(payload, kind=kind, name=name, seed=seed, **_verdict(checks))
        if report["failed"]:
            print("theorem checks failed: " + ", ".join(report["failed"]), file=sys.stderr)
            code = 4
    _write(outdir / "report.json", _json_text(report))
    write_manifest(outdir, obj, seed)
    return code


def _given(args, keys) -> dict:
    """The flags among ``keys`` (each a dest and the document key it sets) that were given."""
    return {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


# The riemann flags whose dest is the riemann1d key they set; --flux and --c0 set "flux".
_RIEMANN_FLAG_KEYS = ("rho_l", "rho_r", "u_l", "u_r", "e0", "u_delta0", "x0", "t_end", "samples")


def cmd_riemann(args) -> int:
    flux = {"kind": args.flux} | _given(args, ("c0",))
    obj = _given(args, _RIEMANN_FLAG_KEYS) | {"kind": "riemann1d", "flux": flux}
    _, _, files = _run_riemann1d(obj, _validated_seed(obj))
    _write(args.out, files["riemann.csv"])
    return 0


def cmd_oracle(args) -> int:
    obj = _given(args, ("preset", "N", "T", "mode", "seed")) | {"kind": "oracle"}
    _, _, files = _run_oracle(obj, _validated_seed(obj))
    _write(args.out, files["oracle.csv"])
    return 0


def cmd_weakcheck(args) -> int:
    solution = load_scenario(args.solution)
    obj = _given(args, ("levels", "seed")) | {"kind": "weakcheck", "solution": solution}
    checks, payload, _ = _run_weakcheck(obj, _validated_seed(obj))
    report = dict(payload, **_verdict(checks))
    _write(args.out, _json_text(report))
    if report["failed"]:
        print("weak identities exceed tolerance", file=sys.stderr)
        return 4
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as the scenario key ``seed`` requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# The flags that take a real number. argparse reads only "-123" and "-1.5"
# as negative numbers; "-1e-3" or "-inf" after such a flag would read as an
# option, so main passes them on as "--flag=value".
_NUMBER_FLAGS = frozenset(
    ["--rho-l", "--rho-r", "--u-l", "--u-r", "--c0", "--e0", "--u-delta0", "--x0", "--t-end", "--T"]
)


def _join_negative_numbers(argv: list, parser: argparse.ArgumentParser) -> list:
    """argv with each number flag followed by a negative number joined to it.

    A flag may be abbreviated as argparse allows: to a prefix that names one
    option of the subcommand, the first argument that is not an option.
    """
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    subcommands = next(a.choices for a in parser._actions if a.dest == "command")
    options = subcommands[command]._option_string_actions if command in subcommands else {}

    def names_a_number_flag(arg: str) -> bool:
        named = [o for o in options if o.startswith(arg)] if arg.startswith("--") else []
        return arg in _NUMBER_FLAGS or len(named) == 1 and named[0] in _NUMBER_FLAGS

    out = []
    for arg in argv:
        if out and names_a_number_flag(out[-1]) and arg.startswith("-") and _is_number(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dshock",
        description="Front tracking for delta-shocks in pressureless gas dynamics.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="execute a scenario config into an output directory")
    runp.add_argument("--config", required=True, help="scenario JSON file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=_seed, default=None)
    runp.set_defaults(func=_execute_scenario)

    r = sub.add_parser("riemann", help="solve two-state 1-D data given as flags")
    r.add_argument("--rho-l", dest="rho_l", type=float, required=True)
    r.add_argument("--rho-r", dest="rho_r", type=float, required=True)
    r.add_argument("--u-l", dest="u_l", type=float, required=True)
    r.add_argument("--u-r", dest="u_r", type=float, required=True)
    r.add_argument("--flux", choices=["standard", "relativistic"], default="standard")
    r.add_argument("--c0", type=float)
    r.add_argument("--e0", type=float)
    r.add_argument("--u-delta0", dest="u_delta0", type=float)
    r.add_argument("--x0", type=float)
    r.add_argument("--t-end", dest="t_end", type=float, required=True)
    r.add_argument("--samples", type=int, default=101)
    r.add_argument("--out", required=True, help="output CSV path")
    r.set_defaults(func=cmd_riemann)

    o = sub.add_parser("oracle", help="run a sticky-particle oracle preset")
    o.add_argument("--preset", choices=["riemann", "spherical"], required=True)
    o.add_argument("--N", type=int, help="particle/shell count")
    o.add_argument("--T", type=float, help="final time")
    o.add_argument("--mode", choices=["midpoint", "random"])
    o.add_argument("--seed", type=_seed)
    o.add_argument("--out", required=True, help="output CSV path")
    o.set_defaults(func=cmd_oracle)

    w = sub.add_parser("weakcheck", help="evaluate weak identities of a solution config")
    w.add_argument("--solution", required=True, help="riemann1d or planar scenario JSON")
    w.add_argument(
        "--levels", type=int, help="quadrature ladder depth; the 1e-6 pass tolerance assumes >= 5"
    )
    w.add_argument("--seed", type=_seed, default=7)
    w.add_argument("--out", required=True, help="output report.json path")
    w.set_defaults(func=cmd_weakcheck)
    return p


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and one-line stderr message of a failure (see the module docstring).

    An exception that is not a package error is a defect, not a verdict on
    the input: it exits 3, named by its type, without a traceback.
    """
    if isinstance(exc, ScenarioError):
        return 2, f"scenario error: {exc}"
    if isinstance(exc, (InvalidParameterError, InvalidBatteryError)):
        return 2, f"invalid configuration: {exc}"
    if isinstance(exc, NoDeltaShockError):
        return 4, f"theorem check failed: {exc}"
    if isinstance(exc, DShockError):
        return 3, f"numerical failure: {exc}"
    return 3, " ".join(f"unexpected error: {type(exc).__name__}: {exc}".split())


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_numbers(sys.argv[1:] if argv is None else argv, parser))
    try:
        return int(args.func(args))
    except Exception as exc:
        code, message = _failure(exc)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
