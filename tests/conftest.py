import sys

from hypothesis import settings

# Property tests draw the same cases on every run; pass
# --hypothesis-profile=default to pytest to explore fresh random cases.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")


def pytest_terminal_summary(terminalreporter):
    """Echo the one-line acceptance verdicts after the test summary."""
    module = sys.modules.get("tests.test_acceptance") or sys.modules.get(
        "test_acceptance"
    )
    lines = getattr(module, "RESULTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
