"""``python -m dimermirror``: the command-line interface of ``dimermirror.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
