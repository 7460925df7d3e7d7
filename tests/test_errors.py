import inspect
import pickle

import pytest

import sapsm.errors as errors

# constructor arguments of each exception type the package defines
ARGS = {
    errors.DimensionMismatch: ("H has shape (2, 3), y has shape (4,)",),
    errors.NonFiniteIterate: (7,),
    errors.CandidateBudget: (4**22, 10**6),
    errors.SolverFailure: ("singular",),
    errors.ConfigError: ("bad config",),
}


def test_every_exception_type_is_covered():
    defined = {obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if issubclass(obj, Exception) and obj.__module__ == errors.__name__}
    assert defined == ARGS.keys()


@pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)
def test_pickle_round_trip_keeps_type_text_and_attributes(cls):
    # a worker process hands its error back pickled
    exc = cls(*ARGS[cls])
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_messages_name_the_values():
    assert str(errors.NonFiniteIterate(7)) == "non-finite iterate at iteration 7"
    assert str(errors.CandidateBudget(5, 4)) == "5 candidates exceed budget of 4"
