"""pytest-benchmark settings for the layer harnesses: one BLAS thread; the
numpy build, BLAS build and BLAS thread count in the machine info of every
saved result; summary statistics only, without the raw per-round samples."""

import os

# numpy reads this once, when it is first imported
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402


def pytest_benchmark_update_machine_info(config, machine_info):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    machine_info["numpy"] = np.__version__
    machine_info["blas"] = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "config": blas.get("openblas configuration", ""),
    }
    machine_info["blas_threads"] = os.environ["OPENBLAS_NUM_THREADS"]


def pytest_benchmark_update_json(config, benchmarks, output_json):
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
