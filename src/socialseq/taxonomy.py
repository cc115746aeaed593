"""Five-domain / nine-relation hierarchical label space.

Domains are the coarse level, relations the fine level; every relation
belongs to exactly one domain. Indices are fixed so that serialized
artifacts and confusion matrices always agree on layout.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

TAXONOMY_VERSION = "5x9-v1"


class Domain(IntEnum):
    ATTACHMENT = 0
    RECIPROCITY = 1
    MATING = 2
    COALITIONAL_GROUP = 3
    HIERARCHICAL_GROUP = 4

    @property
    def label(self) -> str:
        return _DOMAIN_LABELS[self]


class Relation(IntEnum):
    FATHER_CHILD = 0
    MOTHER_CHILD = 1
    FRIENDS = 2
    CLASSMATES = 3
    LOVERS = 4
    COLLEAGUES = 5
    PRESENTER_AUDIENCE = 6
    LEADER_SUBORDINATE = 7
    CUSTOMER_STAFF = 8

    @property
    def label(self) -> str:
        return _RELATION_LABELS[self]


N_DOMAINS = len(Domain)
N_RELATIONS = len(Relation)

_DOMAIN_LABELS = (
    "attachment",
    "reciprocity",
    "mating",
    "coalitional-group",
    "hierarchical-group",
)

_RELATION_LABELS = (
    "father-child",
    "mother-child",
    "friends",
    "classmates",
    "lovers",
    "colleagues",
    "presenter-audience",
    "leader-subordinate",
    "customer-staff",
)

# Single source of truth for the hierarchy; everything else is derived.
RELATION_DOMAIN: dict[Relation, Domain] = {
    Relation.FATHER_CHILD: Domain.ATTACHMENT,
    Relation.MOTHER_CHILD: Domain.ATTACHMENT,
    Relation.FRIENDS: Domain.RECIPROCITY,
    Relation.CLASSMATES: Domain.RECIPROCITY,
    Relation.LOVERS: Domain.MATING,
    Relation.COLLEAGUES: Domain.COALITIONAL_GROUP,
    Relation.PRESENTER_AUDIENCE: Domain.HIERARCHICAL_GROUP,
    Relation.LEADER_SUBORDINATE: Domain.HIERARCHICAL_GROUP,
    Relation.CUSTOMER_STAFF: Domain.HIERARCHICAL_GROUP,
}

# Indicator matrix aggregating relation mass into domains: [5 x 9].
_DOMAIN_OF_RELATION = np.zeros((N_DOMAINS, N_RELATIONS))
for _r, _d in RELATION_DOMAIN.items():
    _DOMAIN_OF_RELATION[_d, _r] = 1.0

_RELATION_FROM_LABEL = {lbl: Relation(i) for i, lbl in enumerate(_RELATION_LABELS)}
_DOMAIN_FROM_LABEL = {lbl: Domain(i) for i, lbl in enumerate(_DOMAIN_LABELS)}


def domain_of(relation: Relation | int) -> Domain:
    """Parent domain of a relation (total function)."""
    return RELATION_DOMAIN[Relation(relation)]


def relations_in(domain: Domain | int) -> tuple[Relation, ...]:
    """Relations under a domain, in canonical index order."""
    d = Domain(domain)
    return tuple(r for r in Relation if RELATION_DOMAIN[r] is d)


def relation_from_label(label: str) -> Relation:
    try:
        return _RELATION_FROM_LABEL[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValueError(f"unknown relation label {label!r}") from None


def domain_from_label(label: str) -> Domain:
    try:
        return _DOMAIN_FROM_LABEL[label]
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise ValueError(f"unknown domain label {label!r}") from None


def infer_domain_distribution(relation_probs) -> np.ndarray:
    """Aggregate a distribution over relations into one over domains.

    Each domain receives the total probability mass of its relations, so
    the result sums to the same total as the input.
    """
    p = np.asarray(relation_probs, dtype=np.float64)
    if p.shape != (N_RELATIONS,):
        raise ValueError(f"expected {N_RELATIONS} relation probabilities, got shape {p.shape}")
    if (p < 0).any():
        raise ValueError("relation probabilities must be nonnegative")
    if abs(float(p.sum()) - 1.0) > 1e-6:
        raise ValueError(f"relation probabilities must sum to 1, got {p.sum()!r}")
    return _DOMAIN_OF_RELATION @ p
