import tempfile

from hypothesis.configuration import set_hypothesis_home_dir


def pytest_configure(config):
    # Even without an example database, Hypothesis caches the constants it
    # reads from local source files, at collection time, under its home
    # directory: .hypothesis/ in the working directory by default.
    config.hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(config.hypothesis_home.name)


def pytest_unconfigure(config):
    config.hypothesis_home.cleanup()
