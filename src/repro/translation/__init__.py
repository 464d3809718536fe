"""The translator (substrate S13): model-layer operators -> runtime ops.

"The final component of our adaptation framework is a translator that
interprets the actions of the repair scripts at the model layer as
operations on the actual system at the runtime layer" (§3.3, Figure 1
item 5).  Every application declares an intent table
(``op -> IntentRow(cost, apply)``); one :class:`IntentTranslator` loop
replays it.
"""

from repro.translation.costs import TranslationCosts
from repro.translation.translator import IntentRow, IntentTranslator, Translator

__all__ = ["IntentRow", "IntentTranslator", "TranslationCosts", "Translator"]
