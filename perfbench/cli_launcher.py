"""Run the modp-gl2 CLI with the benchmark's tracer installed.

Usage: python3 perfbench/cli_launcher.py TRACE_OUT OP_ID CLI_ARG...

Behaves like ``python -m modp_gl2.cli CLI_ARG...`` and, when the command
ends, writes the trace counters and spans of the process to TRACE_OUT.
"""

import sys

import tracer


def main() -> int:
    out, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    import modp_gl2.cli as cli

    calls = tracer.Tracer()
    calls.op_id = op_id
    tracer.install(calls)
    try:
        return cli.main(argv)
    finally:
        calls.dump(out)


if __name__ == "__main__":
    sys.exit(main())
