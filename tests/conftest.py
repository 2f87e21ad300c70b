import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# few, reproducible examples: the property tests add well under 2 s to the suite
settings.register_profile("seldkit", max_examples=40, deadline=None, derandomize=True, database=None)
settings.load_profile("seldkit")
