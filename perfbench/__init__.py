"""Benchmark for the tevdeg CLI and library; see run.py."""
