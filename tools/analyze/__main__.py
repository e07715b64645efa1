"""Entry point of ``python tools/analyze`` (see :mod:`analyze.cli`)."""

import sys
from pathlib import Path

if __name__ == "__main__":
    # Run as a directory, Python puts ``tools/analyze`` itself first on
    # the path; the package imports itself as ``analyze`` from ``tools``.
    sys.path[0] = str(Path(__file__).resolve().parent.parent)
    from analyze.cli import main

    raise SystemExit(main())
