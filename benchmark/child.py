"""One fresh-process iteration of a benchmark workload.

Usage (started by ``run.py``, one process per iteration)::

    python3 benchmark/child.py ROOT RESULT LAUNCHED TRACED -- CLI_ARGS...

Set-up is timed from ``LAUNCHED`` (the parent's ``time.monotonic()`` just
before it started this process; the clock is shared by all processes on
Linux) to the point where ``nsdde_sim`` and ``nsdde_sim.cli`` are imported
and the workload config has been loaded.  Then ``nsdde_sim.cli.main`` runs
on ``CLI_ARGS``, untraced or, with ``TRACED`` = 1, with every layer wrapped
by :class:`tracer.Tracer`.  Timings, the exit code and peak RSS go to the
JSON file ``RESULT``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, result_path, launched, traced, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py ROOT RESULT LAUNCHED TRACED -- CLI_ARGS...")
    sys.path.insert(0, str(Path(root) / "src"))
    import nsdde_sim
    from nsdde_sim import cli

    cli.load_config(cli_args[cli_args.index("--config") + 1])
    ready = time.monotonic()

    tracer = None
    entry = cli.main
    if traced == "1":
        from nsdde_sim import analysis, conditions, euler
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"analysis": analysis, "cli": cli, "conditions": conditions, "euler": euler})
        entry = tracer.wrap("cli.main", cli.main)

    start = time.perf_counter()
    rc = entry(cli_args)
    wall = time.perf_counter() - start

    result = {
        "setup_s": ready - float(launched),
        "wall_s": wall,
        "rc": rc,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": str(Path(nsdde_sim.__file__).resolve()),
        "trace": tracer.report() if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
