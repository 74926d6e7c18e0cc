"""``python -m krl``: the command-line interface, as ``krl``."""

from .cli import main

if __name__ == "__main__":
    main()
