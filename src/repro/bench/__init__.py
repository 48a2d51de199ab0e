"""The experiment front end: every experiment in the repo behind one CLI.

:mod:`repro.bench.figures` holds the paper's figures (Figs. 4-12) and four
ablations as :class:`~repro.serve.experiment.Experiment` definitions;
``python -m repro.bench list|run`` fronts those together with the serving
matrices (:mod:`repro.serve`) and the chaos storms
(:mod:`repro.faults.storm`).
"""

from repro.bench import figures

__all__ = ["figures"]
