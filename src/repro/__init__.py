"""repro: a full reproduction of *Duet: Cloud Scale Load Balancing with
Hardware and Software* (Gandhi et al., SIGCOMM 2014).

Duet embeds load-balancing into commodity switches (HMux) by
re-purposing spare ECMP/tunneling table entries, and backstops them with
a small fleet of Ananta-style software muxes (SMux).  This package
implements the complete system in simulation:

* :mod:`repro.net` -- FatTree/container topology, ECMP routing, BGP-style
  LPM route resolution, failure models;
* :mod:`repro.dataplane` -- packets, the shared flow hash, the three
  switch tables, the HMux pipeline, SMux, host agents (DSR/SNAT);
* :mod:`repro.workload` -- skewed VIP populations, multi-epoch traces,
  packet streams;
* :mod:`repro.core` -- the paper's contribution: MRU-greedy VIP
  assignment, sticky migration, SMux provisioning, the controller;
* :mod:`repro.sim` -- mux queueing/latency models and testbed scenarios;
* :mod:`repro.experiments` -- one driver per paper figure.

Quickstart::

    from repro.net import Topology, FatTreeParams
    from repro.workload import generate_population
    from repro.core import DuetController

    topology = Topology(FatTreeParams())
    population = generate_population(
        topology, n_vips=50, total_traffic_bps=50e9, seed=1
    )
    controller = DuetController(topology, population)
    controller.run_initial_assignment()
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
