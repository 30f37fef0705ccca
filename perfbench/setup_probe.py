"""Set-up of one workload in a fresh interpreter, up to its first solver call.

Run as ``python3 setup_probe.py <workload> <t_spawn>``, where ``t_spawn``
is the parent's ``time.time()`` just before it started this process.
Imports pdegame, resolves and validates each call's config, loads the
catalog problem, builds the game parameters and, for stationary
problems, the score caps.  Prints the seconds since ``t_spawn``.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdegame.cli import RunConfig  # noqa: E402
from pdegame.game_elliptic import build_caps  # noqa: E402
from pdegame.problems import EllipticProblem, get_problem  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    workload, t_spawn = sys.argv[1], float(sys.argv[2])
    for call in WORKLOADS[workload].calls:
        cfg = RunConfig(**call.config)
        cfg.validate()  # builds the game parameters of every rung
        if cfg.mode == "consistency":
            continue
        problem = get_problem(cfg.problem or cfg.default_problem())
        if isinstance(problem, EllipticProblem):
            for eps in cfg.eps_ladder:
                params = cfg.game_params(eps, lambda_rate=problem.lambda_rate)
                build_caps(problem, params, cap_M=cfg.cap_M)
    print(repr(time.time() - t_spawn))


if __name__ == "__main__":
    main()
