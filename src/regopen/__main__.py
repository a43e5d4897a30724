"""``python -m regopen``: the command-line interface of ``regopen.cli``."""

import sys

from .cli import main

sys.exit(main())
