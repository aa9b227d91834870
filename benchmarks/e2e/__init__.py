"""End-to-end serving benchmark: five workloads through ``repro.cli serve``.

See ``README.md`` in this directory; ``run.py`` is the one entry point.
"""
