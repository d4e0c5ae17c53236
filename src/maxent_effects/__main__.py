"""``python -m maxent_effects``: the ``maxent-effects`` command line."""

import sys

from .cli import main

sys.exit(main())
