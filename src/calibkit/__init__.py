"""calibkit: calibration metrics, a differentiable calibration loss, and a
small deterministic trainer for studying confidence calibration.

Names resolve on first use (PEP 562), so ``import calibkit`` loads no numpy
and no submodule until a name is used.
"""

import importlib

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_EXPORTS = {
    "data": "Dataset LogFormat SplitSpec gen_synthetic load_predictions split",
    "errors": "DomainError LabelRangeError MalformedRowError MissingLogError "
              "PredictionLogError ProbabilitySumError",
    "losses": "IndicatorVariant LossConfig LossValue auto_gamma curriculum_weight "
              "soft_ece soft_ece_grad soft_indicator softmax weighted_loss",
    "metrics": "ClassificationReport Predictions ReliabilityTable build_reliability_table "
               "classification_report ece",
    "reporting": "comparison_table render_reliability_svg save_predictions",
    "training": "EpochStats ModelParams TrainConfig TrainReport TrainingMode backward "
                "evaluate forward init_model train train_arms",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = {"_bulk", "kernels", *_EXPORTS}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})


def _main():
    """The ``calibkit`` console script. OpenBLAS starts its worker threads
    when numpy loads, and the CLI runs BLAS on one thread (training pins
    it, ``eval`` makes no BLAS call), so this asks for one thread before
    ``cli`` imports numpy. A user's own ``OPENBLAS_NUM_THREADS`` wins."""
    import os
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main
    main()
