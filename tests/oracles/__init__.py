"""Slow, obvious reference implementations the tests pin production code to.

Nothing in ``src/`` imports these: each one is the executable
specification of a fast path the package ships instead.
"""
