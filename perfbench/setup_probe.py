"""Set-up time of one workload, measured inside a fresh interpreter.

The clock starts before :mod:`repro` is imported and stops once every spec of
the workload is resolved and has been through ``build_machine`` and
``build_stream``: the cost every command-line invocation pays before it
simulates anything.  Interpreter start-up itself is not counted.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload> <input seed> [--tiny]

prints ``{"setup_s": <seconds>}``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list) -> int:
    workload, input_seed = argv[0], int(argv[1])
    tiny = "--tiny" in argv[2:]
    import repro  # noqa: F401  (the import is part of what is timed)
    from repro.scenarios import build_machine, build_stream

    import workloads

    for spec in workloads.resolve_specs(workload, input_seed, tiny=tiny):
        build_machine(spec)
        build_stream(spec)
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
