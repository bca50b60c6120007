import inspect
import pickle

import pytest

from goldenrule import errors

ERROR_CLASSES = sorted(
    (cls for _, cls in inspect.getmembers(errors, inspect.isclass)
     if issubclass(cls, errors.GoldenRuleError)),
    key=lambda cls: cls.__name__)

EXAMPLES = {
    errors.ConfigError: lambda: errors.ConfigError(["a: b", "c: d"]),
    errors.ToleranceFailureError: lambda: errors.ToleranceFailureError(
        "missed", achieved=1.5e-3),
}


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_errors_survive_a_pickle_round_trip(cls):
    """A sweep worker's error reaches the parent through pickle."""
    exc = EXAMPLES.get(cls, lambda: cls("went wrong"))()
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    for attr in ("violations", "achieved"):
        assert getattr(back, attr, None) == getattr(exc, attr, None)
