"""Fuzz of the two JSON inputs a user hands the CLI: config files and caption
manifests. Malformed input must end in exit code 1 (or ManifestError) with a
one-line message, never in a traceback.

Integers are drawn from [-64, 64] half the time and unbounded otherwise: the
config bounds the target grid and the window count from their closed forms
before a rect is built, so a huge ``scale``, window or stride fails at once.
"""

import contextlib
import dataclasses
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resmaster.cli import main
from resmaster.conditioning import ManifestError, load_caption_manifest
from resmaster.config import PipelineConfig
from resmaster.netpbm import write_image

from conftest import RUN_LAYOUT

CONFIG_KEYS = sorted(f.name for f in dataclasses.fields(PipelineConfig)) + [
    "window", "stride", "version", "codec", "bogus",
]

_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_ints = st.one_of(st.integers(-64, 64), st.integers())
_scalars = st.one_of(st.none(), st.booleans(), _ints, st.floats(), _text)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(_text, inner, max_size=3)),
    max_leaves=6,
)
_raw_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)

_DROP = object()


def _mutations_of(base: dict, fields: dict):
    """``base`` with up to two keys replaced by a draw from ``fields[key]`` or dropped."""
    change = st.sampled_from(sorted(fields)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(st.just(_DROP), fields[key])))

    def apply(changes):
        doc = dict(base)
        for key, value in changes:
            if value is _DROP:
                doc.pop(key, None)
            else:
                doc[key] = value
        return doc

    return st.lists(change, max_size=2).map(apply)


# The base tiles the 8x8 target of the 2x2 fuzz reference with one window.
_configs = _mutations_of(
    {"scale": 4, "window": 8, "stride": 4},
    {key: st.one_of(_ints, st.floats(), _values) for key in CONFIG_KEYS},
)
# Half the draws are mutated documents, half are any JSON value or any text.
CONFIG_TEXTS = st.one_of(_configs.map(json.dumps), st.one_of(_values.map(json.dumps), _raw_text))

_manifests = _mutations_of(
    {"version": 1, "global_prompt": "a wide scene", "patch_count": 9,
     "layout": RUN_LAYOUT.to_dict(), "patches": {"0": "sky"}},
    {
        "version": _values,
        "global_prompt": st.one_of(_text, _values),
        "instruction": _values,
        "patch_count": st.one_of(_ints, _values),
        "layout": st.one_of(
            st.builds(lambda key, value: {**RUN_LAYOUT.to_dict(), key: value},
                      st.sampled_from(sorted(RUN_LAYOUT.to_dict())), _values),
            _values,
        ),
        "patches": st.one_of(
            st.dictionaries(st.one_of(st.integers(-2, 12).map(str), _text),
                            st.one_of(_text, _values), max_size=12),
            _values,
        ),
        "extra": _values,
    },
)
MANIFEST_TEXTS = st.one_of(_manifests.map(json.dumps), st.one_of(_values.map(json.dumps), _raw_text))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    write_image(np.full((2, 2, 1), 0.5), path / "ref.pgm")
    return path


@given(text=CONFIG_TEXTS)
@example(text="[]")
@example(text='{"codec": "identity"}')
@example(text='{"scale": 4, "window": 8, "stride": 4, "d0": 1e-200}')
@example(text='{"scale": 100000}')
@example(text='{"scale": 20000, "window": 8, "stride": 4}')
@example(text='{"scale": 10000000000000000000000000000, "stride": 100000000000000000000000000007}')
@settings(max_examples=150, deadline=None)
def test_config_json_through_plan_exits_cleanly(fuzz_dir, text):
    config = fuzz_dir / "config.json"
    config.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["plan", "--in", str(fuzz_dir / "ref.pgm"), "--config", str(config)])
    err = err.getvalue()
    assert code in (0, 1)
    if code == 0:
        assert err == "" and json.loads(out.getvalue())["patch_count"] >= 1
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def _manifest_with(**fields):
    return json.dumps({"version": 1, "global_prompt": "a wide scene", "patch_count": 9,
                       "patches": {}, **fields})


@given(text=MANIFEST_TEXTS)
@example(text="[]")
@example(text=_manifest_with(global_prompt=["a wide scene"]))
@example(text=_manifest_with(patch_count=9.0))
@example(text=_manifest_with(patches=["sky"]))
@example(text=_manifest_with(patches={"0": 7}))
@settings(max_examples=300, deadline=None)
def test_manifest_json_loads_or_raises_one_line(fuzz_dir, text):
    path = fuzz_dir / "caps.json"
    path.write_text(text, encoding="utf-8")
    try:
        captions = load_caption_manifest(path, RUN_LAYOUT)
    except ManifestError as exc:
        assert "\n" not in str(exc)
        return
    # Each window's caption, or the global prompt where it has none.
    doc = json.loads(text)
    want = [doc.get("patches", {}).get(str(i)) or doc.get("global_prompt") for i in range(9)]
    assert captions == want and all(isinstance(c, str) and c for c in captions)
