"""The names the benchmark's per-layer tracer patches stay where it patches them.

``perfbench/tracer.py`` installs each wrapper through ``vars(owner)[attr]``
and numbers window basis vectors through ``win.pieces[root].basis``.  Its own
tests run every benchmark workload, which takes minutes, so this fast check
catches an attribute that was moved, inlined or renamed.  The tracer module is
loaded from its file; its tables are only read and nothing is patched.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_in_its_owners_vars():
    tracer = _tracer()
    targets = [target for table in (tracer.SPANS, tracer.TIMED, tracer.COUNTED)
               for entries in table.values() for target in entries]
    # install() also wraps the window bracket, outside the tables
    targets.append(("decomp:RootSystemWindow", ["bracket"]))
    for path, attrs in targets:
        importlib.import_module("ealie." + path.partition(":")[0])
        owner = tracer._resolve(path)
        for attr in attrs:
            assert attr in vars(owner), f"{path}.{attr}"


def test_window_pieces_keep_their_basis(torus_win, aff_win, sqrt_win):
    tracer = _tracer().Tracer(0)
    total = 0
    for win in (torus_win, aff_win, sqrt_win):
        tracer._register_window(win)
        total += sum(len(piece.basis) for piece in win.pieces.values())
    assert len(tracer._basis_ids) == total > 0
