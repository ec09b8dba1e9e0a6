"""``python -m dpcopt``: the command line interface of dpcopt.runner."""

import sys

from dpcopt.runner import main

if __name__ == "__main__":
    sys.exit(main())
