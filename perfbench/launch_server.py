"""Start ``repro serve`` with the benchmark's wrappers installed first.

Usage: ``python perfbench/launch_server.py [--spans-out F] [--inject K] --
<repro cli arguments>``. With ``--spans-out`` every layer entry point in
the server process is wrapped (see :mod:`layers`) and the spans are
written to ``F`` after the server shuts down on SIGINT. ``--inject`` slows
one layer on purpose for the benchmark's self-test. Worker processes
forked by the process executor inherit both; each worker writes its own
spans to ``F.<pid>`` when it stops.
"""

from __future__ import annotations

import argparse
import faulthandler
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans-out")
    parser.add_argument("--inject")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    # ``repro serve`` stops on SIGINT, which a process started in the
    # background by a non-interactive shell inherits as ignored.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # A server or worker that will not stop dumps its stacks on SIGUSR1.
    faulthandler.register(signal.SIGUSR1, all_threads=True)
    recorder = None
    if args.spans_out:
        recorder = layers.SpanRecorder(args.spans_out)
        recorder.install()
    if args.inject:
        layers.install_injection(args.inject)

    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    if recorder is not None:
        recorder.dump()
    return code


if __name__ == "__main__":
    sys.exit(main())
