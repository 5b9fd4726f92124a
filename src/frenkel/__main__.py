"""`python -m frenkel ...`: the batch CLI of frenkel.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
