"""``python -m lpvembed``: the same command line as the ``lpvembed`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
