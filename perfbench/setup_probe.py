"""One fresh-process set-up of the program, timed from outside by run.py.

Imports the CLI, loads and validates the workload config, and builds the
first simulation state: what a user pays before the first tick runs.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG.json
"""
import sys


def main(config_path: str) -> None:
    from iiot_netsim import cli
    from iiot_netsim.sim_engine import make_state

    cfg, _plan, _snapshot = cli.build_config(cli.load_config_doc(config_path))
    make_state(cfg)


if __name__ == "__main__":
    main(sys.argv[1])
