"""``python -m bandapprox``: the command-line interface of :mod:`bandapprox.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
