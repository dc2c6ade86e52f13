"""Kept only because perfbench/run.py records NUMBA_ENABLED; delete with the next benchmark change."""
NUMBA_ENABLED = False
