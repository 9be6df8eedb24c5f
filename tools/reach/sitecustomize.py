"""Reach-survey profile hook: record every code object a process calls.

Inert unless ``BIPS_REACH_OUT`` names a directory.  Then every thread of
the interpreter runs under a profile function that appends
``<co_filename>\\t<co_firstlineno>`` to ``<dir>/<pid>.tsv`` the first time
the process calls a code object.  The file is line-buffered, so a pool
worker ended by SIGTERM keeps what it recorded.

``survey.py`` copies this file into the ``src`` of a scratch copy of the
tree, so every interpreter started with that ``src`` on ``PYTHONPATH``
(CLI runs, spawn workers, benchmark children) loads it.
"""

import os
import sys
import threading

_OUT = os.environ.get("BIPS_REACH_OUT")

if _OUT:
    # id -> code: holding each code object keeps its id from being reused.
    _seen: dict = {}
    _log = open(
        os.path.join(_OUT, f"{os.getpid()}.tsv"), "a", buffering=1, encoding="utf-8"
    )

    def _record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if id(code) not in _seen:
                _seen[id(code)] = code
                _log.write(f"{code.co_filename}\t{code.co_firstlineno}\n")

    threading.setprofile(_record)
    sys.setprofile(_record)
