"""`python -m ssat`: the same command line as the `ssat` console script."""

import sys

from .cli import main

sys.exit(main())
