"""``python -m matconc``: the command-line interface of :mod:`matconc.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
