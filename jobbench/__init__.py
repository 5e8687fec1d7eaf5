"""Whole-job benchmark of the repro compile service (see README.md)."""
