import pytest


@pytest.fixture
def armchair_cluster_12():
    """A 12-periodic potential with pairwise spacings >= 0.14 for the cluster laws.

    These are the exact floats of the original rejection sampler: with
    ``rng = np.random.default_rng(2)``, draw ``np.sort(rng.uniform(-1.2, 1.2, 12))``
    until ``np.min(np.diff(v)) >= 0.14`` (draw 451 390), then ``rng.shuffle(v)``.
    """
    return [
        -1.1249657836958813, -0.542219568092015, 0.9448995184844453, 0.23802600619077374,
        1.1747087611293485, -0.12271945785023464, 0.38809340992924746, 0.5756525170774185,
        0.09065230312749528, 0.7953154242043883, -0.3184103435597643, -0.6882735662909277,
    ]
