"""Update-based explanations (paper Section 5).

Instead of deleting a responsible subset, Gopher can search for a
*homogeneous update* — one perturbation vector δ applied to every data point
the pattern covers — that maximally reduces model bias.  The search is a
projected gradient ascent in encoded feature space (Eq. 16–18) followed by a
projection of the updated points back onto the valid input domain (Eq. 19).
The vectorized engine (:func:`find_update_explanations`) searches many
patterns per call.  Its one input besides the encoder and the patterns is
an :class:`UpdateSearchContext` — the model, training rows, metric, test
split and shared start-up work, read off a ``ModelArtifacts`` bundle — and
it batches the backoff-scale scoring and verification retrains.
"""

from repro.updates.domain import UpdateDomain
from repro.updates.perturbation import apply_delta, describe_update
from repro.updates.projected_gd import (
    UpdateExplanation,
    UpdateExplanationSet,
    UpdateSearchContext,
    find_update_explanations,
)

__all__ = [
    "UpdateDomain",
    "UpdateExplanation",
    "UpdateExplanationSet",
    "UpdateSearchContext",
    "apply_delta",
    "describe_update",
    "find_update_explanations",
]
