import pickle

import pytest

import tivis  # noqa: F401  (imports every module, so every subclass exists)
from tivis.errors import TivisError


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _instance(cls):
    """An instance built the way the package raises it: the classes with an
    __init__ of their own take a step or an epoch number."""
    if cls.__init__ is Exception.__init__:
        return cls("something went wrong")
    return cls(3)


ERRORS = sorted({TivisError, *_subclasses(TivisError)}, key=lambda c: c.__name__)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_pickle_round_trip_keeps_type_message_and_attributes(cls):
    err = _instance(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert back.args == err.args
    assert vars(back) == vars(err)


def test_every_error_class_is_covered():
    names = {c.__name__ for c in ERRORS}
    assert {"NonFiniteGradientError", "TrainingDivergedError", "MapTooSmallError"} <= names
