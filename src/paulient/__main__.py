"""`python -m paulient ...`: the paulient command without an install."""

from .cli import main

raise SystemExit(main())
