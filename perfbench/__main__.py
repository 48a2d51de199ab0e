"""``python -m perfbench run|compare`` (see ``perfbench/README.md``)."""

import sys

from perfbench.cli import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
