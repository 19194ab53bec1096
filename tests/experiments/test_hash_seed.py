"""Every experiment's JSON is independent of the interpreter's hash salt.

Builtin ``hash`` of a ``str`` is salted per process, so a seed derived
from it makes a table that differs between two runs of the same command
(E10 once seeded its §4 strategies that way).  ``run all --quick --out``
in a subprocess whose ``PYTHONHASHSEED`` differs from this process's
(``other_hash_seed_run``) must write, for every experiment, the bytes
this process's own quick run serialises (``quick_run``) — ``to_json``
drops the wall-clock leaves, the ``repro.artifacts.VOLATILE_KEYS``.
"""

from repro.experiments.runner import EXPERIMENT_IDS


def test_every_experiment_equal_across_hash_seeds(other_hash_seed_run,
                                                  quick_run):
    proc, out = other_hash_seed_run
    here = {name: quick_run(name).to_json() + "\n" for name in EXPERIMENT_IDS}
    _, err = proc.communicate()
    assert proc.returncode == 0, err.decode()
    assert sorted(p.stem for p in out.glob("*.json")) == sorted(here)
    for name, text in here.items():
        assert (out / f"{name}.json").read_text() == text, name
