"""Run the thzris CLI with a SpeedProbe sampling inside the process.

    python3 perfbench/probed_cli.py sweep --param M --values 16,64 --workers 1

Behaves like `python -m thzris <args>` (same stdout and exit code) and
adds one last stderr line, ``perfbench-probe {"paused": s, "scale": f}``:
the time the probe loop took, and the probe's scale factor over the run.
The loop runs in the main thread, between the bytecodes of the command, so
it samples the speed of the CPU the command runs on; a loop in the parent
does not (see NOTES.md).  Use it only for single-threaded commands: next
to worker threads the loop competes with them, or waits for the GIL
between them, and times that instead of the machine.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.common import SpeedProbe  # noqa: E402
from thzris.cli import main  # noqa: E402


def probed_main(argv: list[str]) -> int:
    probe = SpeedProbe()
    with probe, probe.sampling("python"):
        code = main(argv)
    sys.stdout.flush()
    scale = probe.scale("python", float("-inf"), float("inf"))
    sys.stderr.write("\nperfbench-probe " + json.dumps({"paused": probe.paused, "scale": scale}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(probed_main(sys.argv[1:]))
