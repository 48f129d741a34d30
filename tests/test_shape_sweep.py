"""The shape sweep of ``shape_sweep.py`` on every valid shape up to N = 16;
CI runs the same sweep up to N = 32."""

from shape_sweep import C2, KS, POLICIES, PROTOTYPES, sweep, valid_dims


def test_every_fast_operator_matches_its_oracle_on_every_small_shape():
    assert len(valid_dims(16)) == 50
    count, failures = sweep(16)
    # no prototype is refused up to N = 16, so every combination ran
    assert count == 50 * len(PROTOTYPES) * len(KS) * len(C2) * len(POLICIES)
    assert failures == []
