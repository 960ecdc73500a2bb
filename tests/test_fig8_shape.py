"""Figure-8 shape regression: the asymptotics, asserted with wide margins.

Wall-clock shape tests are inherently noisy; these assert only the robust,
order-of-magnitude facts EXPERIMENTS.md reports, with generous slack.
"""

import pytest

from paper import fig8


@pytest.fixture(scope="module")
def result():
    return fig8.run(quick=True)


def test_all_models_present(result):
    expected = {f"fam-{h}" for h in (2, 4, 6, 8, 10)} | {"tim", "bamt"}
    assert set(result.append_tps) == expected
    assert set(result.proof_tps) == expected


def test_tim_proof_cost_grows_structurally():
    # Deterministic form of the decline: tim's proof paths keep lengthening
    # with ledger size (wall-clock TPS follows, but noisily).
    small = fig8.build_tim(1 << 8)
    large = fig8.build_tim(1 << 14)
    assert len(large.get_proof(0).path) > len(small.get_proof(0).path)


def test_tim_proof_throughput_does_not_grow(result):
    # The soft wall-clock counterpart, with a wide noise band.
    series = result.proof_tps["tim"]
    smallest, largest = min(series), max(series)
    assert series[largest] < 1.3 * series[smallest]


def test_fam_proof_throughput_stable(result):
    # Once the epoch threshold is crossed, fam verification is flat: allow
    # a generous 2x noise band across a 64x size range.
    series = result.proof_tps["fam-2"]
    values = list(series.values())
    assert max(values) < 2.0 * min(values)


def test_smaller_delta_verifies_faster(result):
    largest = max(result.sizes)
    assert result.proof_tps["fam-2"][largest] > result.proof_tps["fam-10"][largest]


def test_fam_beats_tim_at_scale(result):
    largest = max(result.sizes)
    assert result.proof_tps["fam-2"][largest] > 1.5 * result.proof_tps["tim"][largest]
    assert result.append_tps["fam-2"][largest] > result.append_tps["tim"][largest]


def test_bamt_slowest_verifier(result):
    # bAMT pays both an in-batch path and an accumulator path.
    largest = max(result.sizes)
    assert result.proof_tps["bamt"][largest] < result.proof_tps["tim"][largest]


def test_render_contains_both_figures(result):
    text = fig8.render(result)
    assert "Figure 8(a)" in text and "Figure 8(b)" in text
