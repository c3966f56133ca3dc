import json

import calibrated_child
import run
import speed
import youngops.cli
from pytest import approx, raises


def test_reference_speed_leaves_time_unchanged():
    assert speed.to_reference(3.0, [speed.REF_LOOP_S] * 4) == approx(3.0)


def test_half_speed_halves_time():
    assert speed.to_reference(3.0, [2 * speed.REF_LOOP_S] * 4) == approx(1.5)


def test_speed_is_averaged_over_time():
    # Half the samples at the reference speed, half at twice it: the
    # mean speed is 1.5x the reference.
    samples = [speed.REF_LOOP_S, speed.REF_LOOP_S / 2] * 3
    assert speed.to_reference(2.0, samples) == approx(3.0)


def test_no_samples_is_an_error():
    with raises(ValueError):
        speed.to_reference(1.0, [])


def test_ref_wall_leaves_out_the_loops():
    loops = [2 * speed.REF_LOOP_S] * 100
    child = run.ChildRun(returncode=0, wall_s=10.5, cpu_s=10.5,
                         peak_rss_mb=30.0, stdout=b"", stderr="")
    rep = run.Repetition(False, child, [], 0, speed=loops)
    assert rep.ref_wall_s() == approx((10.5 - 0.5) / 2)


def test_calibrated_child_keeps_output_and_takes_samples(tmp_path, capsys,
                                                         monkeypatch):
    args = ["verify", "--n", "3", "--N", "2"]
    assert youngops.cli.main(args) == 0
    plain = capsys.readouterr().out
    monkeypatch.setattr(calibrated_child, "TICK_S", 0.001)
    path = tmp_path / "speed.json"
    assert calibrated_child.main([str(path), "--", *args]) == 0
    assert capsys.readouterr().out == plain
    samples = json.loads(path.read_text())
    assert samples and all(s > 0 for s in samples)
