"""``python -m benchmarks.e2e``: same as ``python3 benchmarks/e2e/run.py``."""

from .run import bootstrap

bootstrap()

from .cli import main  # noqa: E402  (the path must be set up first)

raise SystemExit(main())
