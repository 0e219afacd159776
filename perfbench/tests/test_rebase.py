import random
from fractions import Fraction

import numpy as np
import pytest

import rebase
import workloads
from symorders.bundle import bundle_from_dict


def test_unimodular_inverse_is_exact():
    P = [[1, 1, 0], [0, 1, -1], [0, 0, 1]]
    Pinv = rebase.unimodular_inverse(P)
    product = np.array(P, dtype=object) @ Pinv
    assert product.tolist() == rebase.identity(3)


def test_unimodular_inverse_rejects_other_determinants():
    with pytest.raises(ValueError, match="determinant 2"):
        rebase.unimodular_inverse([[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="determinant 0"):
        rebase.unimodular_inverse([[1, 1], [1, 1]])


def test_random_dense_is_unimodular_and_seeded():
    for seed in range(20):
        P = rebase.random_dense(5, random.Random(seed))
        rebase.unimodular_inverse(P)
        assert P == rebase.random_dense(5, random.Random(seed))
        assert {x for row in P for x in row} <= {-1, 0, 1}


def test_identity_rebase_keeps_the_document(s3_doc):
    assert rebase.rebase_doc(s3_doc, rebase.identity(6)) == s3_doc


def _fractions(nested):
    return np.vectorize(Fraction, otypes=[object])(np.array(nested, dtype=object))


def test_rebase_round_trip_and_validation():
    doc = dict(workloads.CANONICAL["small-survey"]())["m2-p3"]
    P = rebase.random_dense(4, random.Random(7))
    moved = rebase.rebase_doc(doc, P)
    assert moved["order"]["structure"] != doc["order"]["structure"]
    bundle_from_dict(moved)  # validators accept the new basis
    back = rebase.rebase_doc(moved, rebase.unimodular_inverse(P).tolist())
    for key in ("structure", "one"):
        assert (_fractions(back["order"][key]) == _fractions(doc["order"][key])).all()
    assert (_fractions(back["forms"]["standard"]) == _fractions(doc["forms"]["standard"])).all()
    assert (_fractions(back["lattices"]["column"]) == _fractions(doc["lattices"]["column"])).all()


def test_permutation_rebase_moves_labels_and_characters(s3_doc):
    perm = [3, 0, 5, 1, 4, 2]
    moved = rebase.rebase_doc(s3_doc, rebase.permutation_matrix(perm))
    labels = s3_doc["order"]["basis_labels"]
    assert moved["order"]["basis_labels"] == [labels[k] for k in perm]
    for old, new in zip(s3_doc["characters"]["values"], moved["characters"]["values"]):
        assert new == [old[k] for k in perm]
    assert moved["decomposition"] == s3_doc["decomposition"]
    bundle_from_dict(moved)
