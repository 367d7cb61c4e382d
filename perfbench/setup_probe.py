"""Set-up probe, run in a fresh interpreter for the ``setup_s`` metric.

Imports genprior, loads the workload's config and builds its first
generator and instance, then prints the path of the package it imported so
the parent can confirm it measured the checkout's own ``src/``.

    python3 perfbench/setup_probe.py '[["problem=linear"], 100, 101]'
"""

import json
import sys


def main():
    overrides, m, seed = json.loads(sys.argv[1])
    from genprior import cli

    cfg = cli.load_config(None, overrides, seed=seed)
    net = cli.build_generator(cfg)
    cli.build_instance(cfg, net, m, seed)
    print(cli.__file__)


if __name__ == "__main__":
    main()
