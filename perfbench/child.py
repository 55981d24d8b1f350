"""One benchmark job: import dshock.cli, run ``main`` on the given argv.

Usage: python child.py TIMING_JSON [TRACE_JSON TRACE_ID] -- [dshock args...]

Writes ``{"import_s", "solve_s", "rc"}`` to TIMING_JSON, where import_s is
the time of ``import dshock.cli`` and solve_s the time inside
``dshock.cli.main``. With no dshock args the job only imports. With
TRACE_JSON the dshock layers are wrapped by ``tracer.Tracer`` for the
duration of ``main`` and the spans are written there afterwards. Exits with
the code ``main`` returned.
"""

import json
import sys
import time


def run(argv: list) -> int:
    split = argv.index("--")
    head, cli_argv = argv[:split], argv[split + 1 :]
    t0 = time.perf_counter()
    import dshock.cli

    import_s = time.perf_counter() - t0
    rc, solve_s = 0, 0.0
    if cli_argv:
        tracer = None
        if len(head) == 3:
            from tracer import Tracer

            tracer = Tracer(head[2])
            tracer.install()
        try:
            t1 = time.perf_counter()
            rc = dshock.cli.main(cli_argv)
            solve_s = time.perf_counter() - t1
        finally:
            if tracer is not None:
                tracer.restore()
                tracer.write(head[1])
    with open(head[0], "w") as fh:
        json.dump({"import_s": import_s, "solve_s": solve_s, "rc": rc}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
