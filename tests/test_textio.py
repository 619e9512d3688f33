"""Every reader rejects a bad field with a TraceParseError that names its line."""

import argparse

import numpy as np
import pytest

from transjump import cli
from transjump.ar_laplace import load_ar_dataset, save_ar_dataset
from transjump.errors import TraceParseError
from transjump.probit import load_spambase
from transjump.rng import RngStream
from transjump.spectral import random_decomposed_chain, read_chain_file, write_chain_file
from transjump.uq import Trace, identity_spec, load_report, load_trace, save_report, save_trace
from transjump.uq import simultaneous_cis


def _ar_dataset(path, toy_ar_data):
    save_ar_dataset(toy_ar_data, path, config_hash="beef")
    return load_ar_dataset, 5, " "  # line 5: an observation row 'y x'


def _trace(path, _):
    save_trace(Trace(RngStream(1).gen.standard_normal((6, 3)), meta={"config_hash": "ab"}), path)
    return load_trace, 4, "\t"


def _report(path, _):
    trace = Trace(RngStream(2).gen.standard_normal((400, 2)))
    save_report(simultaneous_cis(trace, identity_spec(2), 0.1, 0.2, RngStream(3)), path)
    return load_report, 9, "\t"  # the second table row


def _chain(path, _):
    write_chain_file(random_decomposed_chain(RngStream(4, 0))[0], path)
    return read_chain_file, 3, " "


def _spambase(path, _):
    gen = np.random.default_rng(5)
    rows = [",".join(f"{v:.4f}" for v in gen.standard_normal(3)) + f",{i % 2}" for i in range(8)]
    path.write_text("# a comment\n" + "\n".join(rows) + "\n")
    return load_spambase, 4, ","


def _config(path, _):
    path.write_text("# run settings\nsampler = ar-toy\n\nn = 500\nepsilon = 0.01\n")
    return (lambda p: cli._resolve(argparse.Namespace(config=p), cli._RUN_KEYS)), 4, " = "


def _corrupt(text, sep, how):
    fields = text.split(sep)
    if how == "short":
        return sep.join(fields[:-1])
    return sep.join(fields[:-1] + [how])


@pytest.mark.parametrize("how", ["abc", "nan", "short"])
@pytest.mark.parametrize("fmt", [_ar_dataset, _trace, _report, _chain, _spambase, _config])
def test_bad_field_names_line(fmt, how, tmp_path, toy_ar_data):
    path = tmp_path / "file.txt"
    read, lineno, sep = fmt(path, toy_ar_data)
    read(path)  # the file as written parses
    lines = path.read_text().split("\n")
    lines[lineno - 1] = _corrupt(lines[lineno - 1], sep, how)
    path.write_text("\n".join(lines))
    with pytest.raises(TraceParseError, match=f"^line {lineno}: "):
        read(path)
