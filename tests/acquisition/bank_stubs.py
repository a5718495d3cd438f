"""Predict-protocol stub models behind the surrogate-bank surface.

The acquisitions read a bank (target 0 the objective, then each
constraint); :func:`stub_bank` puts hand-written ``predict(x)`` models
behind :class:`~repro.acquisition.fantasy.PerTargetBank` without fitting
them.
"""

from repro.acquisition.fantasy import PerTargetBank


def stub_bank(*models):
    """``models`` as the targets of one bank, in order."""
    bank = PerTargetBank(None, None, len(models))
    bank.models = list(models)
    return bank
