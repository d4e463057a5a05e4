"""The names ``perfbench/tracer.py`` wraps to time a run layer by layer.

The tracer replaces ``module.name`` with a timing wrapper, so a rename, or a
call that no longer goes through that module attribute, would leave its
layer reading zero. Each name here must resolve and be called through it.
"""

import craloha.cli
import craloha.engine
from craloha.cli import main

from conftest import make_scheme, make_traffic

ENGINE_SEAMS = ("generate_arrivals", "sample_degrees")
CLI_SEAMS = ("run_simulation", "delay_distribution", "throughput", "loss_rate", "oracle_decode", "parse_config")


def _count_calls(monkeypatch, module, names):
    """Wrap each ``module.name`` (failing if it is gone) with a call counter."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_engine_seams_called_through_module(monkeypatch):
    calls = _count_calls(monkeypatch, craloha.engine, ENGINE_SEAMS)
    craloha.engine.run_simulation(make_scheme("SW", window=20, n_rx=60), make_traffic(lam=0.5, total=2_000, window=20))
    assert calls == dict.fromkeys(ENGINE_SEAMS, 1)


def test_cli_seams_called_through_module(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, craloha.cli, CLI_SEAMS)
    conf = tmp_path / "run.conf"
    conf.write_text(
        f"mode=SW\nwindow=20\nn_rx=60\nlambda=0.5\ntotal_slots=2000\nwarmup=200\nout={tmp_path}/res\ntimestamp=off\n"
    )
    trace = tmp_path / "trace.csv"
    assert main(["run", str(conf), "--trace", str(trace)]) == 0
    assert main(["oracle", str(trace)]) in (0, 1)
    assert all(calls.values()), calls
