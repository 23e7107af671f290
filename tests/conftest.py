import os

from hypothesis import settings

# CI sets HYPOTHESIS_PROFILE=ci for a deeper search than the default 100 examples
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _acceptance_results.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    # one pass/fail line per acceptance criterion
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in _acceptance_results:
        terminalreporter.write_line(f"{outcome.upper():<6}  {name}")
