"""``python -m perfbench`` — see :mod:`perfbench.run`."""

import sys

from perfbench.run import main

if __name__ == "__main__":
    sys.exit(main())
