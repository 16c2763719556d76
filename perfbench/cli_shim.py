"""Traced entry point for one ``cycibl`` CLI process.

Usage: cli_shim.py STATS_JSON CLI_ARGS...

Imports ``cycibl.cli`` (timed as ``import_s``), installs the span wrappers,
runs ``cycibl.cli.main`` inside a ``cli.main`` span, removes the wrappers,
writes its statistics (and spans beside them), and exits with main's code.
"""

import json
import sys
import time

t0 = time.perf_counter()
import cycibl.cli  # noqa: E402

import_s = time.perf_counter() - t0
import tracer as tracing  # noqa: E402


def main(stats_path, argv) -> int:
    t1 = time.perf_counter()
    tr = tracing.Tracer()
    tr.install()
    install_s = time.perf_counter() - t1
    tr.begin_job(" ".join(argv))
    idx = len(tr.start)
    try:
        code = tr.span("cli.main", cycibl.cli.main, argv)
    finally:
        tr.uninstall()
    stats = tr.stats()
    tr.dump_spans(stats_path + ".spans")
    main_s = tr.end[idx] - tr.start[idx]
    # shim_s: what this shim adds around main (wrapping, statistics, spans)
    stats.update(import_s=import_s, main_s=main_s,
                 shim_s=install_s + time.perf_counter() - tr.end[idx])
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
