"""``python -m seqmeas``: the command-line interface, also from a checkout without the console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
