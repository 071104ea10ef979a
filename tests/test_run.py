"""The table registry's command line and its Spark-free corpus entry."""
import pandas as pd
import pytest

from repro import run
from repro.data.corpus import corpus_table


def test_unknown_name_exits_listing_entries(capsys):
    with pytest.raises(SystemExit) as e:
        run.main(["table99"])
    assert e.value.code != 0
    err = capsys.readouterr().err
    assert all(name in err for name in run.ENTRIES), err


def test_corpus_entry_is_table3_at_repro_scale(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.05")
    (tab,) = run.ENTRIES["corpus"](None).files["table03"]
    assert len(tab) == 33
    pd.testing.assert_frame_equal(tab, corpus_table(scale=0.05))
