"""``python -m cnotcayley``: the same command line as the ``cnotcayley`` script."""

from .cli import main

main()
