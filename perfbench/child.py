"""Run one wavesym CLI command in this fresh interpreter and time it.

Usage: python3 child.py RESULT_JSON LAUNCH_MONOTONIC TRACE -- [CLI_ARGS...]

LAUNCH_MONOTONIC is the parent's ``time.monotonic()`` just before it
started this process (CLOCK_MONOTONIC is shared by all processes on
Linux), so set-up time covers interpreter start and ``import wavesym.cli``.
With TRACE = 1 the layer wrappers of ``tracer`` are installed first and
their counters and spans go into the result file.  The result file is
written only when ``main`` returns; an exception leaves no result, which
the parent counts as a failed operation.
"""

import json
import sys
import time


def run(result_path: str, launch: float, trace: bool, argv: list) -> None:
    tr = None
    if trace:
        import tracer  # found beside this script, which is sys.path[0]

        tr = tracer.Tracer()
        tr.install()
    import wavesym.cli

    t1 = time.monotonic()
    out = {"setup_s": t1 - launch}
    if argv:  # an empty command line only measures set-up
        out["exit"] = wavesym.cli.main(argv)
        t2 = time.monotonic()
        out["main_s"] = t2 - t1
    if tr is not None:
        out["trace"] = tr.summary()
    with open(result_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    sep = sys.argv.index("--")
    path, launch, trace = sys.argv[1:sep]
    run(path, float(launch), trace == "1", sys.argv[sep + 1:])
