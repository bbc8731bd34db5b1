"""CFG001/CFG002 plants: unknown ids and stale suppression comments."""
# reprolint: disable-file=PY002

import time  # reprolint: disable=DET001
import datetime  # reprolint: disable=DET001,PY003

TYPO = 1  # reprolint: disable=DET999
STALE = 2  # reprolint: disable=PY001
MOVED = time.time()  # reprolint: disable=DET001
INVARIANT = 3  # reprolint: disable=INV-EXACTLY-ONCE
UNSUPPRESSIBLE = 4  # reprolint: disable=DET998,CFG001
DOC = """Write `# reprolint: disable-file=DET001` to opt out."""
