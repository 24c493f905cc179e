"""Print the lab's figures, one ``label float.hex`` line each.

The figures are the privacy rows (kerenidis n = 2 and 4 in both modes, the
purification attack, the counterexample honest and purified), the
speciousness rows, the honest and theorem certificates (with each theorem
simulator's extraction bound per even step, which pins its anchors), the
same three families on two runs without an index register (kerenidis n = 1
and the send-db baseline at n = 1, whose runs carry no ``refi``), the
``verify_theorem_bound`` rows, the reconstruction attack (kerenidis n = 2
and 4 and the send-db and send-index baselines at n = 2, each in both
modes) and the decode distribution of kerenidis n = 8: 2,720 labels.  ``float.hex`` is exact, so two commits give the same outputs when
``diff`` of their prints is empty; a label names one figure and contains
no whitespace.

Usage: python scripts/figures.py
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qpirlab.adversaries import adversary_by_name, measure_speciousness  # noqa: E402
from qpirlab.bounds import extraction_attack  # noqa: E402
from qpirlab.privacy import (HonestSimulator, TheoremSimulator,  # noqa: E402
                             privacy_lower_bound, verify_theorem_bound)
from qpirlab.protocols import (build_baseline, build_counterexample,  # noqa: E402
                               build_kerenidis, decode_distribution)
from qpirlab.states import PureState, RegisterLayout  # noqa: E402

ADVERSARIES = ("honest-purified", "purify-db", "gamma:0.3", "gamma-lossy:0.3")


def emit(label: str, value) -> None:
    print(f"{label.replace(' ', '_')} {float(value).hex()}")


def privacy_figures(name, inst, adversary, mode):
    report = privacy_lower_bound(inst, adversary, mode)
    for r in report.rows:
        emit(f"privacy/{name}/{mode}/t{r.step}/{r.x_label}/{r.pair[0]}|{r.pair[1]}", r.distance)
    emit(f"privacy/{name}/{mode}/eps_lower", report.eps_lower)


def certificate_figures(name, rows):
    for label, t, d in rows:
        emit(f"certificate/{name}/t{t}/{label}", d)


def speciousness_figures(name, inst, advs):
    for adv in advs:
        report = measure_speciousness(inst, adversary_by_name(inst, adv))
        for label, t, d in report.rows:
            emit(f"specious/{name}/{adv}/t{t}/{label}", d)
        emit(f"specious/{name}/{adv}/gamma_hat", report.gamma_hat)


def theorem_figures(name, inst):
    for adv in ADVERSARIES:
        sim = TheoremSimulator(inst, adversary_by_name(inst, adv))
        certificate_figures(f"theorem/{name}/{adv}", sim.certify()[1])
        for t, bound in sim.extraction_bounds.items():
            emit(f"certificate/theorem/{name}/{adv}/extraction_bound/t{t}", bound)


def attack_figures(name, inst, mode, database):
    tr = extraction_attack(inst, mode, database)
    for field in ("delta", "epsilon", "epsilon_prime", "overall"):
        emit(f"attack/{name}/{mode}/{field}", getattr(tr, field))
    for b in tr.bits:
        for field in ("probability", "drift", "drift_bound"):
            emit(f"attack/{name}/{mode}/bit{b.index}/{field}", getattr(b, field))


def main() -> int:
    k2, k4, cx2 = build_kerenidis(2), build_kerenidis(4), build_counterexample(2)

    for name, inst in (("k2", k2), ("k4", k4)):
        for mode in ("anchored", "full"):
            privacy_figures(name, inst, None, mode)
    privacy_figures("k2-purify-db", k2, adversary_by_name(k2, "purify-db"), "anchored")
    privacy_figures("cx2", cx2, None, "anchored")
    privacy_figures("cx2-purified", cx2, adversary_by_name(cx2, "honest-purified"), "anchored")

    speciousness_figures("k2", k2, ADVERSARIES)
    speciousness_figures("cx2", cx2, ("honest-purified",))

    for name, inst in (("k2", k2), ("k4", k4), ("cx2", cx2)):
        certificate_figures(f"honest/{name}", HonestSimulator(inst).epsilon_upper()[1])
    theorem_figures("k2", k2)

    # runs without refi: no index to purify, so nothing is steered
    for name, inst in (("k1", build_kerenidis(1)), ("send-db1", build_baseline("send-db", 1))):
        for mode in ("anchored", "full"):
            privacy_figures(name, inst, None, mode)
        speciousness_figures(name, inst, ADVERSARIES)
        certificate_figures(f"honest/{name}", HonestSimulator(inst).epsilon_upper()[1])
        theorem_figures(name, inst)

    advs = [adversary_by_name(k2, a) for a in (*ADVERSARIES, "gamma-lossy:0.1")]
    for r in verify_theorem_bound(k2, advs):
        for field in ("gamma_hat", "eps_hat", "eps_honest", "bound"):
            emit(f"theorem_bound/k2/{r.adversary}/{field}", getattr(r, field))

    attack_figures("k2", k2, "coherent-reference", None)
    attack_figures("k2", k2, "classical-per-a", (1, 0))
    attack_figures("k4", k4, "coherent-reference", None)
    attack_figures("k4", k4, "classical-per-a", (0, 1, 1, 0))
    for name in ("send-db", "send-index"):
        inst = build_baseline(name, 2)
        attack_figures(f"{name}2", inst, "classical-per-a", (1, 0))
        attack_figures(f"{name}2", inst, "coherent-reference", None)

    k8 = build_kerenidis(8, database=(1, 0, 1, 1, 0, 0, 1, 0))
    index = PureState(RegisterLayout(((k8.index_register, k8.levels),)),
                      [1 / math.sqrt(8)] * 8)
    dist = decode_distribution(k8.run(input_state=index, keep_states=False),
                               output_register=k8.output_register,
                               index_register=k8.index_register)
    for (i, bit), p in zip(((i, b) for i in range(dist.shape[0]) for b in (0, 1)),
                           dist.reshape(-1)):
        emit(f"decode/k8/index{i}/bit{bit}", p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
