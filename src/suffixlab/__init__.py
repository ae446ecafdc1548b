"""Suffix trees, the growth statistic, and exact string-counting experiments."""
