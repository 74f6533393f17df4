"""``python -m driveguard``: the same command line as the ``driveguard`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
