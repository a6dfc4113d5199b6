"""``RTTResult`` reduces on read and must read what ``summarize`` computes.

The summary is computed on first access and memoized on the result;
``median_s`` and ``count`` of an unweighted sample are answered without
it.  Whichever statistic is read first, and after a pickle round trip,
every read must equal ``summarize(samples, weights)`` bit for bit.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.metrics import compute_rtt, summarize

# Values over twelve orders of magnitude, so that a median or mean taken
# another way (np.percentile, another summation order) would round
# differently.
_value = st.floats(min_value=1e-9, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


@st.composite
def rtt_samples(draw):
    """(values, weights): unweighted, weighted or empty samples."""
    values = draw(st.lists(_value, max_size=60))
    if not draw(st.booleans()):
        return values, None
    weights = draw(st.lists(st.integers(min_value=1, max_value=1000),
                            min_size=len(values), max_size=len(values)))
    return values, [float(weight) for weight in weights]


def bits(stats) -> dict:
    """A summary or ``as_dict`` payload with floats as hex, so == compares
    bits (and NaN equals NaN)."""
    payload = stats if isinstance(stats, dict) else dataclasses.asdict(stats)
    return {key: value.hex() if isinstance(value, float) else value
            for key, value in payload.items()}


@settings(max_examples=200, deadline=None)
@given(sample=rtt_samples(), summary_first=st.booleans(),
       pickled=st.booleans())
# np.percentile(·, 50) of this pair is one ULP below np.median's, so a
# median read any other way than summarize's fails here.
@example(sample=([0.2462, 0.0253], None), summary_first=False, pickled=False)
def test_reads_equal_summarize_bit_for_bit(sample, summary_first, pickled):
    values, weights = sample
    expected = summarize(values, weights)
    result = compute_rtt(values, weights=weights)
    if summary_first:
        assert bits(result.summary) == bits(expected)
    if pickled:
        result = pickle.loads(pickle.dumps(result))
    assert result.median_s.hex() == expected.median.hex()
    assert result.count == expected.count
    if weights is None and not summary_first:
        # RunResult.median_rtt_s reads count, then median_s: neither may
        # build the summary.
        assert "summary" not in vars(result)
    assert bits(result.summary) == bits(expected)
    assert result.summary is result.summary
    assert result.median_s.hex() == expected.median.hex()
    assert result.count == expected.count
    assert bits(result.as_dict()) == bits({**expected.as_dict(),
                                           "median_s": expected.median})
