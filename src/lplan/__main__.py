"""`python -m lplan`: the lplan command line, run from a checkout without an install."""
from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
