import pickle

import pytest

from ecgbalance import errors

ERRORS = [
    errors.EcgBalanceError("a message"),
    errors.MalformedRecord("synth-c2-r0004", "the number of columns changed"),
    errors.MalformedRecord("synth-c2-r0004"),
    errors.NonFiniteSample("synth-c2-r0004", 4, 0),
    *(
        cls("a message")
        for cls in (
            errors.UnknownClass,
            errors.SpecError,
            errors.WindowOutOfRange,
            errors.DimensionError,
            errors.EncodeError,
            errors.EmptyDataset,
            errors.ConfigError,
            errors.OutputError,
        )
    ),
]


def test_every_error_type_is_listed():
    assert {type(exc) for exc in ERRORS} == {errors.EcgBalanceError, *errors.EcgBalanceError.__subclasses__()}


@pytest.mark.parametrize("exc", ERRORS, ids=lambda exc: type(exc).__name__)
def test_errors_round_trip_through_pickle(exc):
    # A process pool sends a worker's error back to the parent pickled.
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(exc, protocol))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)
