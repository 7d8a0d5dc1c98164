"""Run the isokit command line as ``python -m isokit``."""

from .cli import main

if __name__ == "__main__":
    main()
