"""Child-process entrypoint for :class:`SubprocessConnection`.

Serves the pipe protocol, one request and one reply frame per
statement, for one target connection at a time.  :func:`main` serves
the two streams it is given: a forked worker's fresh pipe pair, or
stdin and stdout when run as ``python -m
repro.adapters.subprocess_worker``.  The process outlives
a :class:`SubprocessConnection`: the parent parks it between
connections and each new connection re-targets it with ``hello``.

* ``hello``   — accepted at any time: close the current target (if
  any), unpickle the connection factory, instantiate a fresh target
  (passing ``offset=`` when the factory advertises ``accepts_offset``),
  and reply with its dialect.  A factory that raises, or that cannot be
  unpickled here, is answered with ``{"fatal": traceback}`` and the
  worker exits;
* ``execute`` — run one fresh statement; reply ``{"ok": rows}``,
  ``{"error": (type, message)}``, or — for a simulated
  :class:`~repro.errors.DBCrash` — announce ``{"crash": message}`` and
  then *die* (``os._exit(139)``, the shell's SIGSEGV convention), so a
  simulated crash and a real segfault look identical to the parent;
* ``replay``  — re-run a previously-successful statement during state
  restoration, bypassing fault injection when the target offers
  ``execute_replay``;
* ``forced_plan`` / ``with_plan`` / ``index_candidates`` — optional
  introspection hooks, forwarded when the target offers them and
  answered with an ``UnsupportedError`` reply otherwise;
* ``close``   — close the target and exit 0.  EOF on stdin exits 0
  too, so a worker whose parent was killed does not linger.

Any non-DBError exception from the target is a tool bug: it is reported
as ``{"fatal": traceback}`` so the parent can raise
:class:`~repro.errors.HarnessError` instead of blaming the DBMS.
"""

from __future__ import annotations

import os
import sys
import traceback

from repro.adapters.subprocess_adapter import read_frame, write_frame
from repro.errors import DBCrash, DBError, UnsupportedError

#: Exit status mimicking death by SIGSEGV (128 + 11).
CRASH_EXIT_CODE = 139

#: Optional target hooks: op -> (request fields passed as arguments,
#: what the error reply says the target lacks).
_HOOKS = {
    "forced_plan": (("sql", "hints"), "forced-plan planning"),
    "with_plan": (("sql", "hints"), "forced-plan execution"),
    "index_candidates": (("tables",), "index enumeration"),
}


def _serve(connection, message: dict):
    """Run one request against the target and return its rows."""
    op = message.get("op")
    if op == "execute":
        return connection.execute(message["sql"])
    if op == "replay":
        replay = getattr(connection, "execute_replay", connection.execute)
        return replay(message["sql"])
    if op not in _HOOKS:
        raise ValueError(f"unknown op: {op!r}")
    fields, what = _HOOKS[op]
    hook = getattr(connection, op, None)
    if hook is None:
        raise UnsupportedError(f"target offers no {what}")
    return hook(*(message[field] for field in fields))


def _close(connection) -> None:
    if connection is not None:
        try:
            connection.close()
        except Exception:
            pass


def main(stdin, stdout) -> int:
    """Serve requests read from *stdin* with replies written to
    *stdout* (binary streams); return the exit status."""
    connection = None
    while True:
        try:
            message = read_frame(stdin)
        except EOFError:
            return 0
        except Exception:
            # A request this process cannot unpickle, such as a factory
            # whose module it cannot import: a tool bug.
            write_frame(stdout, {"fatal": traceback.format_exc()})
            return 1
        op = message.get("op")
        if op == "close":
            _close(connection)
            return 0
        if op == "hello":
            _close(connection)
            factory = message["factory"]
            try:
                if getattr(factory, "accepts_offset", False):
                    connection = factory(offset=message.get("offset", 0))
                else:
                    connection = factory()
            except Exception:
                write_frame(stdout, {"fatal": traceback.format_exc()})
                return 1
            write_frame(stdout,
                        {"dialect": getattr(connection, "dialect", "sqlite")})
            continue
        try:
            rows = _serve(connection, message)
        except DBCrash as crash:
            # Tell the parent why, then die the way a segfault dies:
            # abruptly, without cleanup, taking the process with it.
            write_frame(stdout, {"crash": crash.message})
            os._exit(CRASH_EXIT_CODE)
        except DBError as error:
            write_frame(stdout,
                        {"error": (type(error).__name__, error.message)})
        except Exception:
            write_frame(stdout, {"fatal": traceback.format_exc()})
            return 1
        else:
            write_frame(stdout, {"ok": rows})


if __name__ == "__main__":
    sys.exit(main(sys.stdin.buffer, sys.stdout.buffer))
