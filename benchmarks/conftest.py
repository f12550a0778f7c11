"""Shared configuration for the benchmark harness.

Every benchmark prints the rows/series of the paper artefact it regenerates
and also writes them to ``<results_dir>/<experiment>.txt`` so the output
survives pytest's capture when ``-s`` is not given.  ``results_dir`` is the
committed ``benchmarks/results/`` only when ``REPRO_BENCH_RECORD=1``;
otherwise it is a pytest temp dir, so a verify run leaves the tree clean.
"""

import pathlib

import pytest

from benchmarks._harness import is_recording

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory):
    if not is_recording():
        return tmp_path_factory.mktemp("results")
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
