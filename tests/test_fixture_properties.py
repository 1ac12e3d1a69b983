"""Property tests of the proposal fixture: bitwise round trips, and the same
text and rejections as the line-at-a-time writer and reader it replaced."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from casdet.proposals import Proposal, load_proposals, save_proposals


def _oracle_save(path, by_scene):
    """The writer as it was before it built the file in one string."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# scene_id cx cy w h [score]\n")
        for scene_id in sorted(by_scene):
            for p in by_scene[scene_id]:
                cx, cy, w, h = (float(v) for v in p.box)
                line = f"{scene_id} {cx!r} {cy!r} {w!r} {h!r}"
                if p.score is not None:
                    line += f" {float(p.score)!r}"
                fh.write(line + "\n")


def _oracle_load(path):
    """The reader as it was before it stopped building one array per line."""
    by_scene, rejected = {}, []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (5, 6):
                rejected.append(f"line {lineno}: expected 5 or 6 fields, got {len(parts)}")
                continue
            try:
                scene_id = int(parts[0])
                vals = [float(v) for v in parts[1:5]]
                score = float(parts[5]) if len(parts) == 6 else None
            except ValueError as exc:
                rejected.append(f"line {lineno}: {exc}")
                continue
            box = np.array(vals, dtype=np.float64)
            if not np.all(np.isfinite(box)) or box[2] <= 0 or box[3] <= 0:
                rejected.append(f"line {lineno}: invalid box {vals}")
                continue
            by_scene.setdefault(scene_id, []).append(Proposal(box, score=score))
    return by_scene, rejected


EXTREMES = st.sampled_from([5e-324, 2.2250738585072014e-308, 1e-300, 3.7e-301, 1e300, 8.9e299,
                            1.7976931348623157e308])
coord = st.one_of(st.floats(allow_nan=False, allow_infinity=False), EXTREMES, EXTREMES.map(lambda v: -v))
size = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), EXTREMES)
# NaN scores are left out: ``repr`` writes every NaN as "nan", dropping its sign bit.
proposal = st.builds(lambda box, score: Proposal(np.array(box, dtype=np.float64), score),
                     st.tuples(coord, coord, size, size), st.none() | st.floats(allow_nan=False))
fixtures = st.dictionaries(st.integers(-10**6, 10**6), st.lists(proposal, min_size=1, max_size=6), max_size=5)


def _bits(score):
    return None if score is None else np.float64(score).tobytes()


@settings(max_examples=150, deadline=None)
@given(fixtures)
def test_fixture_round_trip_is_bitwise_and_text_matches_old_writer(tmp_path_factory, by_scene):
    tmp = tmp_path_factory.mktemp("fixture")
    save_proposals(tmp / "new.txt", by_scene)
    _oracle_save(tmp / "old.txt", by_scene)
    assert (tmp / "new.txt").read_bytes() == (tmp / "old.txt").read_bytes()

    loaded, rejected = load_proposals(tmp / "new.txt")
    assert rejected == []
    assert sorted(loaded) == sorted(by_scene)
    for sid, props in by_scene.items():
        assert len(loaded[sid]) == len(props)
        for want, got in zip(props, loaded[sid]):
            assert got.box.shape == (4,) and got.box.dtype == np.float64
            assert got.box.tobytes() == want.box.tobytes()
            assert _bits(got.score) == _bits(want.score)


FIELDS = ["0", "-3", "7", "1.5", "x", "0.5", "0.25", "-0.1", "0", "-0.0", "nan", "inf", "-inf", "1e-320",
          "1e308", "2e308", "#"]
NUMBERS = st.sampled_from(FIELDS[:-2] + ["0.3", "1e-5", "-1e300"])
line = st.one_of(
    st.lists(st.sampled_from(FIELDS), min_size=0, max_size=8).map(" ".join),
    st.lists(NUMBERS, min_size=5, max_size=6).map(" ".join),  # mostly well-formed records
    st.tuples(st.sampled_from(["", "  ", "\t"]), st.sampled_from(["# note", "", "0 0.5 0.5 0.2 0.2"])).map("".join),
)
texts = st.tuples(st.lists(line, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans())


@settings(max_examples=300, deadline=None)
@given(texts)
def test_reader_agrees_with_old_reader_on_arbitrary_lines(tmp_path_factory, text):
    lines, newline, trailing = text
    path = tmp_path_factory.mktemp("fixture") / "f.txt"
    path.write_bytes((newline.join(lines) + (newline if trailing else "")).encode("utf-8"))
    got, got_rejected = load_proposals(path)
    want, want_rejected = _oracle_load(path)
    assert got_rejected == want_rejected
    assert list(got) == list(want)
    for sid in want:
        assert [p.box.tobytes() for p in got[sid]] == [p.box.tobytes() for p in want[sid]]
        assert [_bits(p.score) for p in got[sid]] == [_bits(p.score) for p in want[sid]]
        assert all(math.isfinite(v) for p in got[sid] for v in p.box)
