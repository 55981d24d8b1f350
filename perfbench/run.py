"""dshock benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload weak_ladder --seed 1 --seconds 28 --trace 0

Run from the repository root. Each job is one fresh interpreter running
``dshock.cli.main`` (through ``child.py``), one at a time: a closed loop with
a single client. A pass runs every job of the workload once; the first pass
warms the ``.pyc`` and file caches and is discarded, then passes repeat
while the next one still fits in ``--seconds`` (there is always one). Every
job's output is checked (``check.py``) and must match the warm-up pass byte
for byte.

``--trace 0`` prints the end-to-end metrics (medians over passes):

- wall_s: spawn-to-exit time of one pass, summed over its jobs;
- solve_s: time inside ``cli.main``, summed over the pass;
- setup_s: median time of ``import dshock.cli`` over every job process of
  the run, plus import-only processes up to MIN_SETUP_SAMPLES;
- peak_rss_mb: the largest max-RSS of any job process in a pass.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics from the traced ones (``tracer.py``), import timings parsed from
``python -X importtime``, and the tracing overhead. Spans are written to
``.perfbench-out/`` when the run ends.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. fail_frac (failed / attempted) is printed above it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import check
import gen
from tracer import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = ROOT / "tests" / "golden" / "symmetric_riemann"
# The weak-check work depends on where fronts cross the battery's boxes, so
# the battery is fixed and the data only jittered: every seed then does the
# same quadrature work. Batteries of 3 and 1 members keep a pass near 6 s.
BATTERY_SEED = 5
ORACLE_N, SHELLS_N = 200_000, 20_000
MIN_SETUP_SAMPLES = 7
IMPORTTIME_PROBES = 3
DEADLINE_S = 150.0

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Job:
    """One dshock invocation; ``{out}`` in argv is the job's output path."""

    name: str
    argv: list
    check: object  # callable(out_path) -> list of problems
    expect_rc: int = 0
    out_is_file: bool = False


@dataclass
class JobRun:
    name: str
    wall_s: float
    import_s: float
    solve_s: float
    rss_mb: float
    out_bytes: int
    problems: list
    digest: str
    trace: dict | None = None


@dataclass
class Pass:
    runs: list
    traced: bool = False

    def total(self, attr: str) -> float:
        return sum(getattr(r, attr) for r in self.runs)


# -- workloads ---------------------------------------------------------------


def _write(inputs: Path, name: str, obj: dict) -> str:
    path = inputs / f"{name}.json"
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


def _run_job(name, config, check_fn=None, expect_rc=0, failed=()):
    def verify(out):
        extra = check_fn(out) if check_fn else []
        return check.report(out, failed) + check.manifest(out) + extra

    return Job(name, ["run", "--config", config, "--out", "{out}"], verify, expect_rc)


def weak_ladder(rng: random.Random, inputs: Path) -> list:
    one_d = gen.weakcheck(gen.weak_solution_1d(rng), "weak ladder 1-D", 3, BATTERY_SEED)
    planar = gen.weakcheck(gen.weak_solution_planar(rng), "weak ladder planar", 1, BATTERY_SEED)
    if gen.tangential_speed(planar["solution"]) > 1e-12:
        raise ValueError("planar weak-check data must have no tangential velocity")
    return [
        _run_job("weak_1d", _write(inputs, "weak_1d", one_d)),
        _run_job("weak_planar", _write(inputs, "weak_planar", planar)),
    ]


def oracle(rng: random.Random, inputs: Path) -> list:
    seed = rng.randrange(2**31)
    return [
        Job(
            "oracle_riemann",
            ["oracle", "--preset", "riemann", "--N", str(ORACLE_N), "--mode", "random",
             "--seed", str(seed), "--out", "{out}"],
            lambda out: check.oracle_riemann(out, ORACLE_N),
            out_is_file=True,
        ),
        Job(
            "oracle_spherical",
            ["oracle", "--preset", "spherical", "--N", str(SHELLS_N), "--out", "{out}"],
            lambda out: check.oracle_spherical(out, SHELLS_N),
            out_is_file=True,
        ),
    ]


GEOM_SUITE = {"kind": "geom-suite", "name": "geometry self-checks",
              "radii": [0.5, 1.0, 2.0], "dims": [2, 3], "level": 2, "seed": 0}


def scenario_sweep(rng: random.Random, inputs: Path) -> list:
    rel = gen.relativistic_flux
    std = gen.riemann1d(rng, "seeded riemann, standard flux")
    flags = gen.riemann_states(rng)
    jobs = [
        _run_job("golden_symmetric", str(ROOT / "scenarios" / "symmetric_riemann.json"),
                 lambda out: check.golden(out, GOLDEN)),
        _run_job("riemann_standard", _write(inputs, "riemann_standard", std),
                 lambda out: check.final_speed(out, std)),
    ]
    plain = {
        "riemann_relativistic": gen.riemann1d(rng, "seeded riemann, relativistic", flux=rel(rng)),
        "atom_standard": gen.riemann1d(rng, "seeded atom, standard", with_atom=True),
        "atom_relativistic": gen.riemann1d(rng, "seeded atom, relativistic", flux=rel(rng),
                                           with_atom=True),
        "planar_rotation": gen.planar(rng, "seeded oblique planar front", tangential=True),
        "spherical_converging": gen.spherical(rng, "seeded converging shell"),
        "geom_suite": GEOM_SUITE,
    }
    for name, obj in plain.items():
        jobs.append(_run_job(name, _write(inputs, name, obj)))
    reversed_ = gen.riemann1d(rng, "seeded time-reversed front", time_reverse=True)
    jobs.append(_run_job("time_reversed", _write(inputs, "time_reversed", reversed_),
                         expect_rc=4, failed=["energy_monotonicity"]))
    argv = ["riemann", "--rho-l", repr(flags["rho_l"]), "--rho-r", repr(flags["rho_r"]),
            "--u-l", repr(flags["u_l"]), "--u-r", repr(flags["u_r"]), "--t-end", "1",
            "--out", "{out}"]
    jobs.append(Job("riemann_flags", argv, lambda out: check.riemann_table(out, flags, 101),
                    out_is_file=True))
    return jobs


WORKLOADS = {"weak_ladder": weak_ladder, "oracle": oracle, "scenario_sweep": scenario_sweep}


# -- running -----------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("DSHOCK_THREADS", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def spawn(cmd: list, stderr_path: Path) -> tuple[int, float, float]:
    """Run one process to exit; return (exit code, wall seconds, max RSS in MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_job(job: Job, pass_dir: Path, traced: bool) -> JobRun:
    out = pass_dir / (job.name + (".csv" if job.out_is_file else ""))
    timing = pass_dir / f"{job.name}.timing.json"
    spans = pass_dir / f"{job.name}.spans.json"
    head = [str(timing)] + ([str(spans), f"{pass_dir.name}/{job.name}"] if traced else [])
    argv = [str(out) if a == "{out}" else a for a in job.argv]
    cmd = [sys.executable, str(BENCH / "child.py"), *head, "--", *argv]
    rc, wall, rss = spawn(cmd, pass_dir / f"{job.name}.stderr")
    problems = [] if rc == job.expect_rc else [f"exit code {rc}, expected {job.expect_rc}"]
    try:
        t = json.loads(timing.read_text())
    except (OSError, ValueError):
        t = {"import_s": 0.0, "solve_s": 0.0}
        problems.append("no timing record")
    if not problems:
        try:
            problems = job.check(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"output unreadable: {exc!r}"]
    if problems:
        tail = (pass_dir / f"{job.name}.stderr").read_text(errors="replace")[-400:]
        print(f"FAIL {job.name}: {'; '.join(problems)}\n{tail}", file=sys.stderr)
    exists = out.exists()
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else (
        out.stat().st_size if exists else 0)
    trace = json.loads(spans.read_text()) if traced and spans.exists() else None
    return JobRun(job.name, wall, t["import_s"], t["solve_s"], rss, size, problems,
                  check.digest_tree(out) if exists else "", trace)


def run_pass(jobs: list, tmp: Path, index: int, traced: bool = False) -> Pass:
    pass_dir = tmp / f"pass{index:03d}{'t' if traced else ''}"
    pass_dir.mkdir()
    result = Pass([run_job(job, pass_dir, traced) for job in jobs], traced)
    shutil.rmtree(pass_dir)
    return result


def import_probe(tmp: Path, importtime: bool) -> tuple[float, str]:
    """One import-only process; returns its import time and, with -X importtime, stderr."""
    timing, err = tmp / "probe.timing.json", tmp / "probe.stderr"
    flags = ["-X", "importtime"] if importtime else []
    rc, _, _ = spawn([sys.executable, *flags, str(BENCH / "child.py"), str(timing), "--"], err)
    if rc != 0:
        raise RuntimeError(f"import probe failed: {err.read_text()[-400:]}")
    return json.loads(timing.read_text())["import_s"], err.read_text()


def importtime_metrics(stderr: str) -> dict:
    """Self time per package and module count from ``python -X importtime`` output."""
    self_us = {"dshock": 0, "scipy": 0, "numpy": 0, "jsonschema": 0}
    modules, total_us = 0, 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        modules += 1
        top = name.strip().split(".")[0]
        if top in self_us:
            self_us[top] += int(own)
        if name.strip() == "dshock.cli":
            total_us = int(cumulative)
    out = {f"import.{k}_s": v / 1e6 for k, v in self_us.items()}
    out["import.modules"] = modules
    out["import.total_s"] = total_us / 1e6
    return out


# -- metrics -----------------------------------------------------------------


def fail_count(passes: list) -> int:
    return sum(1 for p in passes for r in p.runs if r.problems)


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list, setup_samples: list) -> dict:
    return {
        "wall_s": median(p.total("wall_s") for p in passes),
        "solve_s": median(p.total("solve_s") for p in passes),
        "setup_s": median(setup_samples),
        "peak_rss_mb": median(max(r.rss_mb for r in p.runs) for p in passes),
    }


def layer_metrics(traced: Pass, plain_solve_s: float) -> dict:
    s = summarize([r.trace for r in traced.runs if r.trace is not None])
    calls, total, own, counters = s["calls"], s["s"], s["self_s"], s["counters"]
    lg_calls, lg_s, lg_distinct = s["leggauss_weak"]
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    main_s = t("cli.main")
    oracle_s = t("sticky_oracle.build") + t("sticky_oracle.delta_cluster_estimate")
    return {
        "weakcheck.evaluate_identities.s": t("weakcheck.evaluate_identities"),
        "weakcheck.identity_value.calls": calls["weakcheck.identity_value"],
        "weakcheck.identity_value.self_s": own.get("weakcheck.identity_value", 0.0),
        "weakcheck.leggauss.calls": lg_calls,
        "weakcheck.leggauss.distinct": lg_distinct,
        "weakcheck.leggauss.s": lg_s,
        "weakcheck.brentq.calls": calls["weakcheck.brentq"],
        "bumps.calls": calls["bumps"],
        "bumps.points": counters["bumps.points"],
        "bumps.s": t("bumps"),
        "sticky_oracle.build.s": t("sticky_oracle.build"),
        "sticky_oracle.run_until.calls": calls["sticky_oracle.run_until"],
        "sticky_oracle.run_until.s": t("sticky_oracle.run_until"),
        "sticky_oracle.snapshot.calls": calls["sticky_oracle.snapshot"],
        "sticky_oracle.snapshot.s": t("sticky_oracle.snapshot"),
        "sticky_oracle.particles": counters["sticky_oracle.particles"],
        "sticky_oracle.merges": counters["sticky_oracle.merges"],
        "spherical.integrate_front.s": t("spherical.integrate_front"),
        "spherical.solve_ivp.nfev": counters["spherical.solve_ivp.nfev"],
        "spherical.radial_moment_integral.calls": calls["spherical.radial_moment_integral"],
        "spherical.radial_moment_integral.s": t("spherical.radial_moment_integral"),
        "spherical.brentq.calls": calls["spherical.brentq"],
        "balance.audit.calls": calls["balance.audit"],
        "balance.audit.s": t("balance.audit"),
        "balance.audit.self_s": own.get("balance.audit", 0.0),
        "geometry.check_integration_by_parts.s": t("geometry.check_integration_by_parts"),
        "geometry.check_surface_transport.s": t("geometry.check_surface_transport"),
        "geometry.check_volume_transport.s": t("geometry.check_volume_transport"),
        "geometry.mean_curvature.calls": calls["geometry.mean_curvature"],
        "riemann1d.solve_constant_states.calls": calls["riemann1d.solve_constant_states"],
        "riemann1d.solve_constant_states.s": t("riemann1d.solve_constant_states"),
        "scenario.validate_scenario.calls": calls["scenario.validate_scenario"],
        "scenario.validate_scenario.s": t("scenario.validate_scenario"),
        "scenario.build.s": t("scenario.build"),
        "cli.main.s": main_s,
        "cli.write_csv.calls": calls["cli.write_csv"],
        "cli.write_csv.s": t("cli.write_csv"),
        "cli.write_manifest.s": t("cli.write_manifest"),
        "cli.out_bytes": traced.total("out_bytes"),
        "share.weakcheck": t("weakcheck.evaluate_identities") / main_s if main_s else 0.0,
        "share.sticky_oracle": oracle_s / main_s if main_s else 0.0,
        "trace.overhead_frac": traced.total("solve_s") / plain_solve_s - 1.0,
    }


def layer_unit(name: str) -> str:
    if name.startswith(("share.", "trace.")):
        return "frac"
    if name == "cli.out_bytes":
        return "bytes"
    return "s" if name.endswith(("_s", ".s")) else "count"


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "jsonschema"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": sys.version.split()[0], **versions, "nproc": os.cpu_count(), "cpu": cpu}


# -- main --------------------------------------------------------------------


def measure(args, tmp: Path) -> tuple[dict, list]:
    inputs = tmp / "inputs"
    inputs.mkdir()
    jobs = WORKLOADS[args.workload](random.Random(args.seed), inputs)
    start = time.perf_counter()
    warm = run_pass(jobs, tmp, 0)
    all_passes = [warm]
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, tmp, len(all_passes)))
        all_passes.append(plain[-1])
        if args.trace:
            traced.append(run_pass(jobs, tmp, len(all_passes), traced=True))
            all_passes.append(traced[-1])
        now = time.perf_counter()
        per_round = (now - t0) / len(plain)
        if now - t0 + per_round > args.seconds or now - start + per_round > DEADLINE_S:
            break
    for p in all_passes:
        for job_run, ref in zip(p.runs, warm.runs):
            if job_run.digest != ref.digest and not job_run.problems:
                job_run.problems.append("output differs from the warm-up pass")
    if args.trace:
        probes = [import_probe(tmp, importtime=True)[1] for _ in range(IMPORTTIME_PROBES)]
        parsed = [importtime_metrics(text) for text in probes]
        per_pass = [layer_metrics(t, p.total("solve_s")) for t, p in zip(traced, plain)]
        metrics = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics.update({k: median(m[k] for m in parsed) for k in parsed[0]})
        metrics["share.import"] = median(p.total("import_s") / p.total("wall_s") for p in plain)
        units = {k: layer_unit(k) for k in metrics}
        write_spans(args, traced)
    else:
        setup = [r.import_s for p in plain for r in p.runs]
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(import_probe(tmp, importtime=False)[0])
        metrics = end_to_end(plain, setup)
        units = END_TO_END
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, all_passes


def write_spans(args, traced: list) -> None:
    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.spans.jsonl"
    with open(path, "w") as fh:
        for p in traced:
            for job_run in p.runs:
                for rec in (job_run.trace or {}).get("spans", []):
                    fh.write(json.dumps(rec) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "dshock" / "cli.py").is_file():
        print(f"no dshock sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        metrics, passes = measure(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    runs = [r for p in passes for r in p.runs]
    failed = fail_count(passes)
    info = machine()
    print(f"workload {args.workload} seed {args.seed}: {len(passes) - 1} measured passes "
          f"of {len(passes[0].runs)} jobs; " + ", ".join(f"{k} {v}" for k, v in info.items()))
    for i, p in enumerate(passes):
        label = " (warm-up)" if i == 0 else " (traced)" if p.traced else ""
        print(f"  pass {i}{label}: wall {p.total('wall_s'):.3f} s, "
              f"solve {p.total('solve_s'):.3f} s, import {p.total('import_s'):.3f} s")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':44s} {failed / len(runs):.6g} ({failed} of {len(runs)} jobs)")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
