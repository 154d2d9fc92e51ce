"""``python -m compalg``: the ``compalg`` command line from a checkout."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
