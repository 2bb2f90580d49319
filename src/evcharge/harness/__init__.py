"""Experiment harness: ingestion, episode runs, sweeps, reports, CLI."""
