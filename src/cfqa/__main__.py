"""``python -m cfqa``: the same command line as the ``cfqa`` script."""

import sys

from .cli import main

sys.exit(main())
