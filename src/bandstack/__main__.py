"""``python -m bandstack`` runs the command-line interface."""

import sys

from bandstack.cli import main

if __name__ == "__main__":
    sys.exit(main())
