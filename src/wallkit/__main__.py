"""``python -m wallkit``: the same command line as the ``wallkit`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
