"""Start ``repro serve`` in-process, optionally recording layer spans.

    python3 perfbench/serve_launcher.py [--spans-out FILE] serve ARGS...

With ``--spans-out`` every layer entry point is wrapped (see ``spans.py``)
before ``repro.cli.main`` runs, and the server's spans are written to
FILE once it has drained and returned.  Whatever processes the server
started are waited for before it exits (see ``procs.py``).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    spans_out = None
    if argv[:1] == ["--spans-out"]:
        spans_out, argv = argv[1], argv[2:]
    recorder = None
    if spans_out is not None:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    from procs import become_subreaper, reap_all
    from repro.cli import main as repro_main

    become_subreaper()
    try:
        return repro_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_out)
        reap_all()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
