"""Reference oracles: the plain, slow versions the production kernels are
checked against, one module per layer.

Each oracle lives here once and the property tests import it, so a kernel
and its reference are never compared through a second copy:

- :mod:`reference.events` — the generator event loop the schedule and
  lifecycle oracles run on;
- :mod:`reference.energy` — the per-tick PAPI polling loop over RAPL
  counters;
- :mod:`reference.workloads` — the application lifetime as a generator
  process;
- :mod:`reference.cluster` — the schedule pass as generator processes and
  the per-phase node meter;
- :mod:`reference.zfp` — the per-bitplane ZFP coder over a sequential
  MSB-first bit reader/writer;
- :mod:`reference.huffman` — the per-offset pointer-doubling Huffman
  decoder;
- :mod:`reference.iolib` — the per-flow fair-share solver the flow-class
  PFS solver replaced.
"""
