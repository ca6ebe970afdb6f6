"""Core: the paper's decision framework and the experiment drivers.

- :mod:`repro.core.formulation` — Section III's benefit conditions (Eq. 3-5);
- :mod:`repro.core.tradeoff` — grid evaluation of (codec, bound) choices;
- :mod:`repro.core.advisor` — pick the best codec under a quality floor;
- :mod:`repro.core.experiments` — the Testbed and one driver per
  figure/table of the evaluation;
- :mod:`repro.core.extrapolation` — Section VII facility-scale projections;
- :mod:`repro.core.report` — ASCII rendering of tables and figure series.

The names below load on first access: importing :mod:`repro.core` (or one
of its submodules, such as :mod:`repro.core.experiments`) runs none of
the advisor or trade-off code until a caller reads one of their names.
"""

from repro import _lazy

_EXPORTS = {
    "repro.core.formulation": ("BenefitConditions", "CompressionPlan"),
    "repro.core.tradeoff": ("TradeoffAnalyzer", "TradeoffRecord"),
    "repro.core.advisor": ("Advisor", "CompressionAdvice", "DvfsAdvisor", "Recommendation"),
    "repro.core.experiments": ("Testbed",),
}
__all__ = sorted(name for names in _EXPORTS.values() for name in names)
__getattr__, __dir__ = _lazy.exports(globals(), _EXPORTS)
