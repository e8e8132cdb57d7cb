"""One benchmark command: ``python3 perfbench/child.py <rankgradient CLI args>``.

run.py spawns this script once per CLI command.  It imports
``rankgradient.cli`` from the checkout's ``src``, writes the monotonic
clock reading at which it is about to call ``main`` to file descriptor 3
(run.py subtracts its spawn time to get the set-up time), and runs the
command.  When ``PERFBENCH_SPANS`` names a file, the layers are wrapped in
spans first and the spans are written there once the command ends.
"""

import os
import sys
import time


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import rankgradient.cli as cli

    spans_path = os.environ.get("PERFBENCH_SPANS")
    recorder = None
    if spans_path:
        import spans

        recorder = spans.install()
    os.write(3, repr(time.monotonic()).encode("ascii"))
    os.close(3)
    try:
        return cli.main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path, os.environ.get("PERFBENCH_COMMAND", ""))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
