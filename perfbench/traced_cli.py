"""Run the hasts CLI with the per-layer tracer installed.

    python perfbench/traced_cli.py TRACE_JSON <hasts cli arguments...>

Writes the tracer's totals, its spans and the change in the exact Bernstein
coefficient cache to TRACE_JSON; exits with the CLI's exit code.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402

import layertrace  # noqa: E402


def main(argv):
    path, cli_args = argv[0], argv[1:]
    tracer = layertrace.Tracer()
    restore = layertrace.install(tracer)
    import hasts.cli

    h0, m0 = layertrace.coeff_cache_info()
    try:
        code = hasts.cli.main(cli_args)
    finally:
        h1, m1 = layertrace.coeff_cache_info()
        restore()
        with open(path, "w") as f:
            json.dump(
                {"report": tracer.report(), "spans": tracer.spans, "cache": [h1 - h0, m1 - m0]}, f
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
