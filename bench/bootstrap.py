"""Put the checkout's own ``src`` first on sys.path and import edgeray.

The benchmark must measure the sources of the checkout it runs in, never
an installed copy, so a checkout without ``src/edgeray`` is an error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_edgeray():
    if not (SRC / "edgeray" / "__init__.py").is_file():
        sys.exit("bench: no edgeray sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import edgeray
    if Path(edgeray.__file__).resolve().parent != SRC / "edgeray":
        sys.exit("bench: imported edgeray from %s, not from %s"
                 % (edgeray.__file__, SRC))
    return edgeray
