import os
import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# few, reproducible examples: the property tests add well under 2 s to the suite
settings.register_profile("seldkit", max_examples=40, deadline=None, derandomize=True, database=None)
settings.load_profile("seldkit")


def pytest_report_header(config):
    """The BLAS thread settings and core count the run's bits depend on."""
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}"
                        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"BLAS threads: {threads}; os.cpu_count() = {os.cpu_count()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """The same line after the results, where -q, which hides the header,
    still shows it."""
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))
