"""Self-tests of the benchmark: ``python -m pytest perfbench/tests -q``
from the repository root (tier-1's ``testpaths`` stays ``tests``)."""

import perfbench

perfbench.require_repro()
