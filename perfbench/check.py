"""Output checks for benchmark jobs.

Every check returns a list of problems; an empty list means the job's
output is correct. A missing or unparsable output raises, and the caller
counts that as a problem too. The references are independent of dshock's own solvers:
recomputed sha256 digests, the byte-exact golden copy, closed-form front
speeds, and closed-form limits for the sticky-particle presets.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Random sampling of the 4:1 oracle preset. The Dvoretzky-Kiefer-Wolfowitz
# inequality bounds each side's empirical CDF error by
# eps = sqrt(ln(2 / DELTA) / (2 n)) except with probability DELTA, for any
# seed. The cluster at t = 1 holds left mass rho_l (u_l - s) = 8/3 and right
# mass rho_r (s - u_r) = 4/3, so the swept masses are off by at most
# rho_l L eps = 8 eps and rho_r L eps = 2 eps. Linearising
# u = (m_l u_l + m_r u_r) / (m_l + m_r) around M = 4 gives
# |du| <= (2/3)/4 * 8 eps + (4/3)/4 * 2 eps = 2 eps and |dM| <= 10 eps.
# A further factor 1.5 covers the linearisation. At N = 200k this allows
# 0.031 in u_delta and 0.16 in mass; typical errors are near 2e-3 and 2e-2.
DKW_DELTA = 1e-9
ORACLE_U, ORACLE_MASS = 1.0 / 3.0, 4.0


def oracle_riemann_bounds(n_particles: int) -> tuple[float, float]:
    eps = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * (n_particles // 2)))
    return 1.5 * 2.0 * eps, 1.5 * 10.0 * eps


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_tree(path: Path) -> str:
    """One digest over a job's output file or directory, for rerun equality."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for p in files:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def manifest(outdir: Path) -> list:
    """Every artifact is listed in manifest.json with its recomputed sha256 and size."""
    try:
        man = json.loads((outdir / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"manifest unreadable: {exc}"]
    problems = []
    listed = set(man.get("files", {}))
    present = {p.name for p in outdir.iterdir() if p.is_file() and p.name != "manifest.json"}
    if listed != present:
        problems.append(f"manifest lists {sorted(listed)}, directory has {sorted(present)}")
    for name in sorted(listed & present):
        entry, path = man["files"][name], outdir / name
        if entry.get("sha256") != _sha256(path) or entry.get("bytes") != path.stat().st_size:
            problems.append(f"manifest digest mismatch for {name}")
    return problems


def report(outdir: Path, failed=()) -> list:
    """report.json says passed, or failed exactly the expected checks."""
    rep = json.loads((outdir / "report.json").read_text())
    failed = list(failed)
    if rep.get("failed") != failed or rep.get("passed") is not (not failed):
        return [f"report passed={rep.get('passed')} failed={rep.get('failed')}, expected {failed}"]
    return []


def golden(outdir: Path, golden_dir: Path) -> list:
    """Byte equality with the golden directory, file for file."""
    want = sorted(p.name for p in golden_dir.iterdir() if p.is_file())
    got = sorted(p.name for p in outdir.iterdir() if p.is_file())
    if want != got:
        return [f"golden files {want}, got {got}"]
    return [f"{n} differs from golden" for n in want if (outdir / n).read_bytes() != (golden_dir / n).read_bytes()]


def read_csv(path: Path) -> tuple[list, list]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def front_speed(d: dict) -> tuple[float, float]:
    """Closed-form overcompressive speed and mass rate for the standard flux."""
    a, b = math.sqrt(d["rho_l"]), math.sqrt(d["rho_r"])
    s = (a * d["u_l"] + b * d["u_r"]) / (a + b)
    return s, d["rho_l"] * (d["u_l"] - s) + d["rho_r"] * (s - d["u_r"])


def riemann_table(path: Path, d: dict, samples: int) -> list:
    """The riemann CSV follows x = s t, u_delta = s, e = rate t."""
    names, rows = read_csv(path)
    if names[:4] != ["t", "phi", "u_delta", "e"] or len(rows) != samples:
        return [f"riemann CSV has columns {names} and {len(rows)} rows"]
    s, rate = front_speed(d)
    worst = max(
        max(abs(r[1] - s * r[0]), abs(r[2] - s), abs(r[3] - rate * r[0])) for r in rows
    )
    return [] if worst <= 1e-12 else [f"riemann CSV off the closed form by {worst:.3e}"]


def final_speed(outdir: Path, d: dict) -> list:
    rep = json.loads((outdir / "report.json").read_text())
    s, _ = front_speed(d)
    err = abs(rep["u_delta_final"] - s)
    return [] if err <= 1e-12 else [f"u_delta_final off the closed form by {err:.3e}"]


def oracle_riemann(path: Path, n_particles: int) -> list:
    _, rows = read_csv(path)
    if len(rows) != 16 or rows[-1][0] != 1.0:
        return [f"oracle CSV has {len(rows)} rows ending at t={rows[-1][0] if rows else None}"]
    tol_u, tol_m = oracle_riemann_bounds(n_particles)
    _, _, u_hat, m_hat = rows[-1]
    problems = []
    if not abs(u_hat - ORACLE_U) <= tol_u:
        problems.append(f"|u_hat - 1/3| = {abs(u_hat - ORACLE_U):.3e} > {tol_u:.3e}")
    if not abs(m_hat - ORACLE_MASS) <= tol_m:
        problems.append(f"|mass_hat - 4| = {abs(m_hat - ORACLE_MASS):.3e} > {tol_m:.3e}")
    return problems


def oracle_spherical(path: Path, n_shells: int) -> list:
    """Shell preset: front at r = 1 (e0 = 0.01, u = -1/2) in rho = r^-2, u = -1, n = 3.

    All swept gas moves at -1, so with m0 = 0.04 pi the cluster mass is
    m(t) = sqrt(m0^2 + 4 pi m0 t) and its velocity -1 + m0 / (2 m). Shells
    are whole, so the mass may be off by one shell, 4 pi (2.5 / N).
    """
    _, rows = read_csv(path)
    if len(rows) != 16:
        return [f"oracle CSV has {len(rows)} rows"]
    m0 = 0.04 * math.pi
    shell = 4.0 * math.pi * 2.5 / n_shells
    worst_m = worst_u = 0.0
    for t, _, u_hat, m_hat in rows:
        worst_m = max(worst_m, abs(m_hat - math.sqrt(m0 * m0 + 4.0 * math.pi * m0 * t)))
        worst_u = max(worst_u, abs(u_hat - (-1.0 + 0.5 * m0 / m_hat)))
    problems = []
    if not worst_m <= shell:
        problems.append(f"shell cluster mass off by {worst_m:.3e} > {shell:.3e}")
    if not worst_u <= 1e-10:
        problems.append(f"shell cluster velocity off momentum balance by {worst_u:.3e}")
    return problems
