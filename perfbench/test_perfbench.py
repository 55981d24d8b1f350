"""Tests of the benchmark's own machinery: python -m pytest perfbench"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

import pytest

import check
import gen
import run
import tracer

sys.path.insert(0, str(run.ROOT / "src"))


def _generate(workload: str, seed: int, where: Path) -> dict:
    where.mkdir()
    jobs = run.WORKLOADS[workload](random.Random(seed), where)
    files = {p.name: p.read_text() for p in sorted(where.iterdir())}
    return {"argv": [j.argv for j in jobs], "files": files}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = _generate(workload, 11, tmp_path / "a")
    b = _generate(workload, 11, tmp_path / "b")
    c = _generate(workload, 12, tmp_path / "c")
    strip = lambda g, d: json.dumps(g).replace(str(tmp_path / d), "")  # noqa: E731
    assert strip(a, "a") == strip(b, "b")
    assert strip(a, "a") != strip(c, "c")


def test_generated_scenarios_are_admissible(tmp_path):
    for seed in range(300):
        for workload in run.WORKLOADS:
            where = tmp_path / f"{workload}-{seed}"
            _generate(workload, seed, where)
            for path in where.glob("*.json"):
                obj = json.loads(path.read_text())
                assert gen.admissible(obj), (seed, path.name, obj)
                if obj["kind"] == "weakcheck" and obj["solution"]["kind"] == "planar":
                    assert gen.tangential_speed(obj["solution"]) < 1e-12


def test_admissible_rejects_bad_data():
    rng = random.Random(0)
    good = gen.riemann1d(rng, "x", with_atom=True)
    assert gen.admissible(good)
    assert not gen.admissible(dict(good, u_delta0=good["u_l"]))
    assert not gen.admissible(dict(good, u_r=good["u_l"] + 1.0))
    assert not gen.admissible(dict(good, rho_r=0.0))
    sph = gen.spherical(rng, "s")
    assert gen.admissible(sph)
    assert not gen.admissible(dict(sph, u_delta0=-1.0))
    assert not gen.admissible(dict(sph, phi0=0.5))
    assert gen.tangential_speed(gen.planar(rng, "p", tangential=True)) > 0.1


def _targets():
    import importlib

    out = []
    for modname, attr, _ in tracer.FUNCTIONS:
        mod = importlib.import_module(modname)
        if hasattr(mod, attr):
            out.append((mod, attr, getattr(mod, attr)))
    for modname, clsname, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        out.append((cls, attr, cls.__dict__[attr]))
    return out


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_restores_every_patch(tmp_path):
    import dshock.cli

    before = _targets()
    assert len(before) == len(tracer.FUNCTIONS) + len(tracer.METHODS)
    tr = tracer.Tracer("test")
    tr.install()
    try:
        assert all(_current(o, a) is not orig for o, a, orig in before)
        rc = dshock.cli.main(
            ["riemann", "--rho-l", "4", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
             "--t-end", "1", "--out", str(tmp_path / "r.csv")]
        )
    finally:
        tr.restore()
    assert rc == 0
    assert all(_current(o, a) is orig for o, a, orig in before)
    names = [rec[3] for rec in tr.spans]
    assert names[0] == "cli.main" and "riemann1d.solve_constant_states" in names
    assert all(rec[0] == "test" for rec in tr.spans)
    assert all(rec[2] == 0 for rec in tr.spans[1:] if rec[3] != "bumps")


def test_tracer_restores_after_an_exception():
    import dshock.cli

    before = _targets()
    tr = tracer.Tracer("boom")
    tr.install()
    try:
        with pytest.raises(SystemExit):
            dshock.cli.main(["no-such-command"])
    finally:
        tr.restore()
    assert all(_current(o, a) is orig for o, a, orig in before)


def test_summarize_self_time_subtracts_direct_children():
    spans = [
        ["j", 0, None, "cli.main", 0.0, 10.0, None],
        ["j", 1, 0, "weakcheck.evaluate_identities", 1.0, 9.0, None],
        ["j", 2, 1, "leggauss", 2.0, 3.0, 8],
        ["j", 3, 1, "leggauss", 4.0, 4.5, 8],
        ["j", 4, 0, "leggauss", 9.5, 9.75, 6],
    ]
    s = tracer.summarize([{"spans": spans, "counters": {"bumps.points": 3}}])
    assert s["s"]["cli.main"] == 10.0
    assert s["self_s"]["cli.main"] == 10.0 - 8.0 - 0.25
    assert s["self_s"]["weakcheck.evaluate_identities"] == 8.0 - 1.5
    assert s["calls"]["leggauss"] == 3
    assert s["leggauss_weak"] == (2, 1.5, 1)
    assert s["counters"]["bumps.points"] == 3


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   json",
        "import time:      2000 |       5000 |     numpy",
        "import time:      3000 |       3000 |       scipy.integrate",
        "import time:       400 |       9000 |   dshock",
        "import time:        50 |       9050 | dshock.cli",
    ])
    m = run.importtime_metrics(text)
    assert m["import.modules"] == 5
    assert m["import.numpy_s"] == 0.002 and m["import.scipy_s"] == 0.003
    assert m["import.dshock_s"] == 0.00045 and m["import.total_s"] == 0.00905


def _golden_copy(tmp_path) -> Path:
    out = tmp_path / "out"
    shutil.copytree(run.GOLDEN, out)
    return out


def test_golden_copy_passes_every_check(tmp_path):
    out = _golden_copy(tmp_path)
    assert check.golden(out, run.GOLDEN) == []
    assert check.manifest(out) == []
    assert check.report(out) == []


def test_corrupted_golden_file_is_a_failure(tmp_path):
    out = _golden_copy(tmp_path)
    data = bytearray((out / "riemann.csv").read_bytes())
    data[-3] = ord("7") if data[-3] != ord("7") else ord("8")
    (out / "riemann.csv").write_bytes(bytes(data))
    assert check.golden(out, run.GOLDEN)
    assert check.manifest(out)


def test_corrupted_manifest_is_a_failure(tmp_path):
    out = _golden_copy(tmp_path)
    man = json.loads((out / "manifest.json").read_text())
    man["files"]["plot.gp"]["sha256"] = "0" * 64
    (out / "manifest.json").write_text(json.dumps(man))
    assert check.manifest(out)
    (out / "manifest.json").unlink()
    assert check.manifest(out)


def test_failed_check_counts_in_fail_frac(tmp_path):
    out = _golden_copy(tmp_path)
    (out / "plot.gp").write_text("corrupted\n")
    job = run.Job("golden", [], lambda o: check.golden(o, run.GOLDEN) + check.manifest(o))
    assert job.check(out)
    assert run.fail_count([run.Pass([_job_run(job.check(out)), _job_run([])])]) == 1


def test_unreadable_output_is_a_failure(tmp_path):
    pass_dir = tmp_path / "pass"
    pass_dir.mkdir()
    argv = ["riemann", "--rho-l", "1", "--rho-r", "1", "--u-l", "1", "--u-r", "-1",
            "--t-end", "1", "--out", "{out}"]
    job = run.Job("golden", argv, lambda o: check.golden(o, run.GOLDEN))
    job_run = run.run_job(job, pass_dir, traced=False)
    assert [p for p in job_run.problems if p.startswith("output unreadable")]


def _job_run(problems):
    return run.JobRun("j", 1.0, 0.5, 0.4, 80.0, 10, problems, "")


def test_oracle_checks(tmp_path):
    tol_u, tol_m = check.oracle_riemann_bounds(run.ORACLE_N)
    assert 0.02 < tol_u < 0.04 and 0.1 < tol_m < 0.2
    good = tmp_path / "good.csv"
    rows = [f"{k / 16},0,{1 / 3 + 2e-3},{4 * k / 16}" for k in range(1, 17)]
    good.write_text("t,position_hat,u_delta_hat,mass_hat\n" + "\n".join(rows) + "\n")
    assert check.oracle_riemann(good, run.ORACLE_N) == []
    bad = tmp_path / "bad.csv"
    bad.write_text(good.read_text().replace(f"{1 / 3 + 2e-3}", "0.5"))
    assert check.oracle_riemann(bad, run.ORACLE_N)


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "oracle", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
