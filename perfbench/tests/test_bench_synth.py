import numpy as np

import tecator_synth


def test_same_seed_reproduces_identical_arrays():
    first = tecator_synth.generate_arrays(7)
    second = tecator_synth.generate_arrays(7)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_other_seed_differs():
    _, spectra_a, fat_a = tecator_synth.generate_arrays(7)
    _, spectra_b, fat_b = tecator_synth.generate_arrays(8)
    assert not np.array_equal(spectra_a, spectra_b)
    assert not np.array_equal(fat_a, fat_b)


def test_tecator_shape():
    dataset = tecator_synth.generate(0)
    assert len(dataset) == 215
    assert dataset.domain == (850.0, 1050.0)
    assert dataset.matrix().shape == (215, 100)
    assert np.all((dataset.targets >= 1.0) & (dataset.targets <= 49.0))
    assert tecator_synth.generate_arrays(0)[0][[0, -1]].tolist() == list(tecator_synth.PARAMS.domain)


def test_fat_band_tracks_target():
    grid, spectra, fat = tecator_synth.generate_arrays(3)
    band = spectra[:, np.argmin(np.abs(grid - 930.0))] - spectra[:, np.argmin(np.abs(grid - 880.0))]
    assert np.corrcoef(band, fat)[0, 1] > 0.5
