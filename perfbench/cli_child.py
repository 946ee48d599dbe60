"""Run one ``solenoid`` CLI command in this fresh interpreter, timed or
traced from inside.

    python3 perfbench/cli_child.py --clock BURSTS.json [solenoid arguments]
    python3 perfbench/cli_child.py --spans SPANS.json  [solenoid arguments]

``--clock`` runs the calibration bursts of clock.py from before the
package's import to the end and saves their totals to BURSTS.json;
``--spans`` installs the layer tracer and saves the spans and counters to
SPANS.json.  Without solenoid arguments only the package is imported (the
start-up measurement).  Exits with the CLI's own exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "--clock":
        from clock import Sampler
        sampler = Sampler()
        try:
            with sampler:
                from solenoid import cli
                return cli.main(argv) if argv else 0
        finally:
            sampler.save(path)
    from solenoid import cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv) if argv else 0
    finally:
        with open(path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
