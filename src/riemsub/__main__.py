"""``python -m riemsub``: the ``riemsub`` command line."""

import sys

from .cli import main

sys.exit(main())
