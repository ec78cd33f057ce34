"""One CLI invocation in the test's own process, captured as
``perfbench/run.py``'s ``invoke`` captures it."""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple

from drinfeld import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # raised out of ``main``, which exits 1 with a traceback

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(args) -> Result:
    """``drinfeld *args`` run through ``cli.main``: its exit code, its stdout
    and stderr, and the exception that escaped it, if any."""
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception as exc:
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
