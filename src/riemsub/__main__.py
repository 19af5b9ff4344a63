"""``python -m riemsub``: the ``riemsub`` command line."""

import sys

from .cli import entry

sys.exit(entry())
