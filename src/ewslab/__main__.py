"""``python -m ewslab``: the command-line interface of ``ewslab.cli``."""

import sys

from .cli import main

sys.exit(main())
