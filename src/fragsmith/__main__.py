"""``python -m fragsmith``: the command-line interface of :mod:`fragsmith.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
