"""Hypothesis profile for CI runs, selected with ``pytest --hypothesis-profile=ci``.

Under it a failing example prints the blob that replays it
(``@reproduce_failure``). Recent Hypothesis releases ship a ``ci`` profile of
their own (derandomized, no deadline), loaded when the ``CI`` variable is set;
this one keeps its settings and makes sure ``print_blob`` is on.
"""

from hypothesis import settings
from hypothesis.errors import InvalidArgument

try:
    _shipped = settings.get_profile("ci")
except InvalidArgument:  # a release without it
    _shipped = None

settings.register_profile("ci", parent=_shipped, print_blob=True)
