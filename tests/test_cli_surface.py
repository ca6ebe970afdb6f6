"""CLI flag surface: every subcommand's flags, pinned row by row.

Each row is ``(action, option strings, dest, type, default, choices,
required)``; help text is deliberately left out, so wording may change
while names, types, defaults and choices may not.  Positionals keep their
order; options are listed by flag name.
"""

import argparse

from repro.cli import build_parser, main

SURFACE = {
    '': [
        ('SubParsers', (), 'command', None, None,
         ('advise', 'bench', 'cluster', 'codecs', 'compress', 'cpus', 'dataset',
          'datasets', 'decompress', 'inspect', 'sweep', 'trace'),
         True),
        ('Version', ('--version',), 'version', None, '==SUPPRESS==', None, False),
    ],
    'advise': [
        ('Store', ('--bounds',), 'bounds', None, '1e-1,1e-2,1e-3,1e-4,1e-5', None, False),
        ('StoreTrue', ('--checkpoint',), 'checkpoint', None, False, None, False),
        ('Store', ('--codecs',), 'codecs', None, 'sz2,sz3,zfp,qoz,szx', None, False),
        ('Store', ('--compression',), 'compression', None, None, None, False),
        ('Store', ('--cpu',), 'cpu', None, 'plat8160', None, False),
        ('Store', ('--dataset',), 'dataset', None, 'cesm', None, False),
        ('Store', ('--downtime',), 'downtime', 'float', 60.0, None, False),
        ('StoreTrue', ('--dvfs',), 'dvfs', None, False, None, False),
        ('Store', ('--freqs',), 'freqs', None, '', None, False),
        ('Store', ('--interval',), 'interval', None, 'daly', None, False),
        ('Store', ('--io',), 'io', None, 'hdf5', ('hdf5', 'netcdf'), False),
        ('Store', ('--mttf',), 'mttf', 'float', 86400.0, None, False),
        ('Store', ('--n-nodes',), 'n_nodes', 'int', 16, None, False),
        ('Store', ('--objective',), 'objective', None, 'energy',
         ('energy', 'ratio', 'time'),
         False),
        ('Store', ('--psnr-min',), 'psnr_min', 'float', 60.0, None, False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--seed',), 'seed', 'int', 0, None, False),
        ('StoreTrue', ('--strict-time',), 'strict_time', None, False, None, False),
        ('Store', ('--work',), 'work', 'float', 3600.0, None, False),
    ],
    'bench': [
        ('Store', (), 'suite', None, None, ('kernels',), True),
        ('Store', ('--datasets',), 'datasets', None, None, None, False),
        ('StoreTrue', ('--json',), 'json', None, False, None, False),
        ('Store', ('--max-regression',), 'max_regression', 'float', None, None, False),
        ('Store', ('--output',), 'output', None, 'BENCH_kernels.json', None, False),
        ('StoreTrue', ('--quick',), 'quick', None, False, None, False),
        ('Store', ('--repeats',), 'repeats', 'int', 3, None, False),
        ('Store', ('--trace',), 'trace', None, None, None, False),
    ],
    'cluster': [
        ('SubParsers', (), 'cluster_command', None, None, ('advise', 'run'), True),
    ],
    'cluster advise': [
        ('Store', ('--cpu',), 'cpu', None, 'plat8160', None, False),
        ('Store', ('--dataset',), 'dataset', None, 'nyx', None, False),
        ('Store', ('--io',), 'io', None, 'hdf5', ('hdf5', 'netcdf'), False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--scenario',), 'scenario', None, None, None, True),
    ],
    'cluster run': [
        ('Store', ('--cpu',), 'cpu', None, 'plat8160', None, False),
        ('Store', ('--dataset',), 'dataset', None, 'nyx', None, False),
        ('Store', ('--io',), 'io', None, 'hdf5', ('hdf5', 'netcdf'), False),
        ('StoreTrue', ('--json',), 'json', None, False, None, False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--scenario',), 'scenario', None, None, None, True),
        ('Store', ('--trace',), 'trace', None, None, None, False),
    ],
    'codecs': [
    ],
    'compress': [
        ('Store', (), 'input', None, None, None, True),
        ('Store', (), 'output', None, None, None, True),
        ('Store', ('--codec',), 'codec', None, 'sz3',
         ('blosc', 'fpc', 'fpzip', 'qoz', 'sz2', 'sz3', 'szx', 'zfp', 'zstd'),
         False),
        ('Store', ('--rel-bound',), 'rel_bound', 'float', 0.001, None, False),
    ],
    'cpus': [
    ],
    'dataset': [
        ('SubParsers', (), 'dataset_command', None, None, ('read', 'tune', 'write'), True),
    ],
    'dataset read': [
        ('Store', (), 'input', None, None, None, True),
        ('Store', ('--out-dir',), 'out_dir', None, None, None, False),
    ],
    'dataset tune': [
        ('Store', ('--bounds',), 'bounds', None, '1e-1,1e-2,1e-3,1e-4,1e-5', None, False),
        ('Store', ('--codecs',), 'codecs', None, 'sz2,sz3,zfp,qoz,szx', None, False),
        ('Store', ('--compression',), 'compression', None, 'auto,rel,1e-3', None, False),
        ('Store', ('--cpu',), 'cpu', None, 'max9480', None, False),
        ('Store', ('--datasets',), 'datasets', None, 'cesm', None, False),
        ('Store', ('--io',), 'io', None, 'hdf5', ('hdf5', 'netcdf'), False),
        ('StoreTrue', ('--json',), 'json', None, False, None, False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--trace',), 'trace', None, None, None, False),
    ],
    'dataset write': [
        ('Store', (), 'output', None, None, None, True),
        ('Store', ('--bounds',), 'bounds', None, '1e-1,1e-2,1e-3,1e-4,1e-5', None, False),
        ('Store', ('--codecs',), 'codecs', None, 'sz2,sz3,zfp,qoz,szx', None, False),
        ('Store', ('--compression',), 'compression', None, 'auto,rel,1e-3', None, False),
        ('Store', ('--datasets',), 'datasets', None, 'cesm', None, False),
        ('Store', ('--io',), 'io', None, 'hdf5', ('hdf5', 'netcdf'), False),
        ('Store', ('--n-chunks',), 'n_chunks', 'int', 1, None, False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--trace',), 'trace', None, None, None, False),
    ],
    'datasets': [
    ],
    'decompress': [
        ('Store', (), 'input', None, None, None, True),
        ('Store', (), 'output', None, None, None, True),
    ],
    'inspect': [
        ('Store', (), 'input', None, None, None, True),
    ],
    'sweep': [
        ('Store', ('--bounds',), 'bounds', None, '1e-1,1e-2,1e-3,1e-4,1e-5', None, False),
        ('Store', ('--cache-dir',), 'cache_dir', None, None, None, False),
        ('Store', ('--codecs',), 'codecs', None, 'sz2,sz3,zfp,qoz,szx', None, False),
        ('Store', ('--compression',), 'compression', None, '', None, False),
        ('Store', ('--cpus',), 'cpus', None, 'max9480', None, False),
        ('Store', ('--datasets',), 'datasets', None, 'cesm,hacc,nyx,s3d', None, False),
        ('Store', ('--downtime',), 'downtime', 'float', 60.0, None, False),
        ('Store', ('--executor',), 'executor', None, 'serial',
         ('serial', 'thread', 'process'),
         False),
        ('Store', ('--freqs',), 'freqs', None, '', None, False),
        ('Store', ('--interval',), 'interval', None, 'daly', None, False),
        ('Store', ('--io-libraries',), 'io_libraries', None, 'hdf5,netcdf', None, False),
        ('StoreTrue', ('--json',), 'json', None, False, None, False),
        ('Store', ('--kind',), 'kind', None, 'serial', None, False),
        ('Store', ('--lossless-codecs',), 'lossless_codecs', None, 'zstd,blosc,fpzip,fpc',
         None,
         False),
        ('Store', ('--mttfs',), 'mttfs', None, 'inf,86400,21600', None, False),
        ('Store', ('--n-chunks',), 'n_chunks', 'int', 8, None, False),
        ('Store', ('--n-nodes',), 'n_nodes', 'int', 1, None, False),
        ('StoreTrue', ('--no-baseline',), 'no_baseline', None, False, None, False),
        ('StoreTrue', ('--no-overlap',), 'no_overlap', None, False, None, False),
        ('Store', ('--on-error',), 'on_error', None, 'raise', ('raise', 'collect'), False),
        ('StoreTrue', ('--paper-fidelity',), 'paper_fidelity', None, False, None, False),
        ('StoreTrue', ('--progress',), 'progress', None, False, None, False),
        ('Store', ('--rel-bound',), 'rel_bound', 'float', 0.001, None, False),
        ('StoreTrue', ('--resume',), 'resume', None, False, None, False),
        ('Store', ('--retries',), 'retries', 'int', 0, None, False),
        ('Store', ('--scale',), 'scale', None, 'test', ('tiny', 'test', 'bench'), False),
        ('Store', ('--scenario',), 'scenario', None, '', None, False),
        ('Store', ('--seed',), 'seed', 'int', 0, None, False),
        ('Store', ('--spec',), 'spec', None, None, None, False),
        ('Store', ('--threads',), 'threads', None, '1', None, False),
        ('Store', ('--timeout',), 'timeout', 'float', None, None, False),
        ('Store', ('--trace',), 'trace', None, None, None, False),
        ('Store', ('--work',), 'work', 'float', 3600.0, None, False),
        ('Store', ('--workers',), 'workers', 'int', None, None, False),
    ],
    'trace': [
        ('SubParsers', (), 'trace_command', None, None, ('summarize',), True),
    ],
    'trace summarize': [
        ('Store', (), 'input', None, None, None, True),
    ],
}


def _rows(parser):
    positionals, options = [], []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = sorted(choices)
        row = (
            type(action).__name__.strip("_").removesuffix("Action"),
            tuple(action.option_strings),
            action.dest,
            getattr(action.type, "__name__", action.type),
            action.default,
            None if choices is None else tuple(choices),
            action.required,
        )
        (options if action.option_strings else positionals).append(row)
    return positionals + sorted(options, key=lambda row: row[1])


def _surface(parser, path=()):
    out = {" ".join(path): _rows(parser)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_surface(sub, path + (name,)))
    return out


def test_every_subcommand_keeps_its_flags():
    surface = _surface(build_parser())
    assert sorted(surface) == sorted(SURFACE)
    for command, rows in SURFACE.items():
        assert surface[command] == rows, command


def test_cluster_advise_prints_the_mix_table(capsys):
    rc = main([
        "cluster", "advise", "--scenario",
        "nodes=4; a=ranks:8,codec:szx; b=ranks:8,codec:none",
        "--dataset", "cesm", "--scale", "tiny",
    ])
    out = capsys.readouterr().out
    assert rc in (0, 1)  # exit code encodes the compress verdict
    assert "per-tenant compression mixes" in out
    assert "szx+none" in out and "none+none" in out
