import pytest

from specfrag.cli import main


@pytest.fixture(scope="session")
def cli_run(tmp_path_factory):
    """cli_run(args) runs ``specfrag run *args`` once per session and
    returns its output directory, so tests that read one config share its
    run."""
    done = {}

    def run(args):
        key = tuple(args)
        if key not in done:
            out = tmp_path_factory.mktemp("run")
            assert main(["run", *args, "-o", str(out)]) == 0
            done[key] = out
        return done[key]

    return run
