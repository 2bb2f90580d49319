"""Experiment harness: ingestion, episode runs, sweeps, reports, CLI."""

from .config import ExperimentConfig, apply_overrides, episode_slot_count, load_config
from .ingest import Calibration, EmptyAfterTrim, Episode, IngestResult, ParseError, ingest_prices
from .report import emit_report, load_rows, rows_to_dicts, write_report
from .runner import EpisodeRow, SlotRow, run_episode, spec_from_calibration
from .sweeps import compare_policies, sweep_alpha, sweep_rate_limit

__all__ = [name for name in dir() if not name.startswith("_")]
