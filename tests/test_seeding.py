import numpy as np
import pytest

from locclab import SpecError
from locclab.seeding import rng_from, seed_sequence


def test_streams_named_by_python_ints_and_strings_stay_put():
    draws = rng_from(7, "trial", 3, "success").integers(0, 2**32, 4)
    assert draws.tolist() == [224748185, 151139802, 564961852, 590659543]


@pytest.mark.parametrize("root", [0, np.int64(0), np.uint32(0)])
def test_numpy_integer_label_names_the_python_int_stream(root):
    a = rng_from(root, np.int64(5)).integers(0, 2**32, 2)
    assert a.tolist() == rng_from(0, 5).integers(0, 2**32, 2).tolist()


@pytest.mark.parametrize("root", [-1, 2.5, 2.0, True, "3", None])
def test_root_must_be_an_integer_at_least_zero(root):
    # never truncated: 2.5 is not seed 2
    with pytest.raises(SpecError, match="seed"):
        seed_sequence(root)
