"""Command-line front end: generate, map, sim, report.

Exit codes are a stable contract: 0 success, 2 parse/validation failure,
3 unmappable graph, 4 run-time limit or machine fault. All outputs are
byte-reproducible for identical inputs; ``--timestamps`` opts into a
wall-clock line in the text report.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import os
import struct
import sys
import time

from . import arch as arch_mod
from .arch import parse_arch_file
from .dfg import parse_dfg
from .errors import ParseError, Unmappable, WindmillError
from .mapper import emit_bitstream, map_dfg
from .pe import MEMORY_OPS, unpack_bitstream
from .plugins import elaborate_arch, report_from_build, standard_machine
from .system import DEFAULT_CYCLE_LIMIT, SystemSim, four_step_script, parse_script

log = logging.getLogger("windmill")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNMAPPABLE = 3
EXIT_RUNTIME = 4


_SWEEP_KEYS = ("rows", "cols", "sm_banks", "bank_depth", "context_depth_mcmd",
               "topology", "exec_mode")


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None


def _read_image(path: str) -> list[int]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) % 4:
        raise ParseError(f"{path}: image length {len(blob)} is not word aligned")
    return list(struct.unpack(f"<{len(blob) // 4}I", blob))


def _write_image(path: str, words: list[int]):
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<{len(words)}I", *[w & 0xFFFFFFFF for w in words]))


def _load_arch(path: str):
    return parse_arch_file(_read_text(path))


# --- generate ----------------------------------------------------------------


def _sweep_values(spec: str):
    key, _, values = spec.partition("=")
    key = key.strip().lower()   # as the arch file reads its keys
    if key not in _SWEEP_KEYS:
        raise ParseError(f"--sweep key {key!r} not sweepable")
    out = []
    for v in values.split(","):
        v = v.strip()
        try:
            out.append(arch_mod.read_value(key, v))
        except ParseError:
            raise ParseError(f"--sweep {key}: bad value {v!r}") from None
    return key, out


def _apply_sweep(params, assignment: dict):
    from dataclasses import replace
    params = replace(params, **assignment)
    if "rows" in assignment or "cols" in assignment:
        params = arch_mod.with_default_type_map(params)
    return arch_mod.validate(params)


def cmd_generate(args) -> int:
    base = _load_arch(args.arch)
    sweeps = [_sweep_values(s) for s in (args.sweep or [])]
    configs = []
    if sweeps:
        keys = [k for k, _ in sweeps]
        for combo in itertools.product(*[vals for _, vals in sweeps]):
            configs.append(_apply_sweep(base, dict(zip(keys, combo))))
    else:
        configs.append(base)

    rows = []
    for params in configs:
        ctx = elaborate_arch(params)
        report = report_from_build(ctx)
        rows.append(report)
        for plugin, phase, seq in ctx.phase_log:
            log.info("elaborated %-12s %s (#%d)", plugin, phase, seq)

    lines = []
    if args.timestamps:
        lines.append(f"# generated at {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    for report in rows:
        lines += [
            f"array: {report.rows}x{report.cols} ({report.topology}, {report.exec_mode})",
            f"  pes: {report.gpe_count} GPE, {report.lsu_count} LSU, {report.cpe_count} CPE",
            f"  links: {report.links_directed} directed",
            f"  context: {report.context_words_per_pe} words/PE, "
            f"{report.context_bits_total} bits total",
            f"  shared memory: {report.sm_banks} banks x {report.bank_depth} x "
            f"{report.bank_width} bits = {report.sm_bytes} bytes",
            f"  shared regs: {report.shared_reg_count} ({report.shared_reg_mode})",
            f"  rpus: {report.rpu_count}",
        ]
    print("\n".join(lines))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(",".join(rows[0].CSV_COLUMNS) + "\n")
            for report in rows:
                fh.write(report.csv_row() + "\n")
    return EXIT_OK


# --- map -----------------------------------------------------------------------


def cmd_map(args) -> int:
    machine = standard_machine(_load_arch(args.arch))
    dfg = parse_dfg(_read_text(args.dfg))
    mapping = map_dfg(dfg, machine)
    blob = emit_bitstream(mapping)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"mapped {len(mapping.placement)} ops: schedule length "
          f"{mapping.schedule_length}, {mapping.route_op_count()} route ops, "
          f"{len(mapping.pes_used())} PEs, {len(blob)} bitstream bytes")
    lsus = {op.pe for op in mapping.micro_ops if op.opcode in MEMORY_OPS}
    print(f"lsus used: {len(lsus)}")
    return EXIT_OK


# --- sim ------------------------------------------------------------------------


def cmd_sim(args) -> int:
    machine = standard_machine(_load_arch(args.arch))
    image = _read_image(args.data) if args.data else []
    system = SystemSim(machine, image, cycle_limit=args.cycle_limit)
    with open(args.bitstream, "rb") as fh:
        records = unpack_bitstream(fh.read())
    system.register_config(0, records)
    result_len = args.result_len
    system.submit_script(parse_script(_read_text(args.script)) if args.script
                         else four_step_script(len(image), args.result_addr, result_len))
    partial = None
    try:
        system.run()
    except WindmillError as exc:
        # any fault once the run has started is a run-time fault: report it
        # and still write the partial stats
        partial = exc
    stats = system.stats
    if args.out:
        _write_image(args.out, system.results_words(result_len))
    if args.stats:
        with open(args.stats, "w", encoding="utf-8") as fh:
            fh.write(stats.csv_header() + "\n")
            fh.write(stats.csv_row() + "\n")
    if partial is not None:
        print(f"error: {partial}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"done in {stats.total_cycles} cycles, "
          f"{stats.host_commands} host commands, "
          f"{stats.bank_conflicts} bank conflicts")
    return EXIT_OK


# --- report ----------------------------------------------------------------------


def cmd_report(args) -> int:
    text = _read_text(args.stats)
    rows = [(n, ln.split(",")) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if len(rows) < 2:
        raise ParseError(f"{args.stats}: expected a header row and a data row")
    header = rows[0][1]
    for n, values in rows[1:]:
        if len(values) != len(header):
            raise ParseError(f"{args.stats}: line {n}: expected {len(header)} fields, "
                             f"got {len(values)}")
    width = max(len(h) for h in header)
    for _, values in rows[1:]:
        for h, v in zip(header, values):
            print(f"{h:<{width}}  {v}")
    return EXIT_OK


# --- entry ------------------------------------------------------------------------


def _int_at_least(low: int):
    """argparse type: an integer literal in any base ``int(v, 0)`` reads, no
    smaller than ``low``; argparse turns a rejection into exit 2."""
    def integer(text: str) -> int:
        value = int(text, 0)
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} is below {low}")
        return value
    return integer


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; each parse fills a new namespace."""
    parser = argparse.ArgumentParser(prog="windmill",
                                     description="CGRA generator, mapper, simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="elaborate an architecture, report resources")
    g.add_argument("--arch", required=True)
    g.add_argument("--out", help="CSV report path")
    g.add_argument("--sweep", action="append", metavar="KEY=V1,V2",
                   help="sweep a parameter over values (repeatable)")
    g.add_argument("--timestamps", action="store_true")

    m = sub.add_parser("map", help="compile a dataflow graph to a bitstream")
    m.add_argument("--arch", required=True)
    m.add_argument("--dfg", required=True)
    m.add_argument("--out", required=True, help="bitstream output path")

    s = sub.add_parser("sim", help="run the host protocol over a bitstream")
    s.add_argument("--arch", required=True)
    s.add_argument("--bitstream", required=True)
    s.add_argument("--data", help="input image (little-endian 32-bit words)")
    s.add_argument("--script", help="host command script; default is the 4-step flow")
    s.add_argument("--out", help="results binary path")
    s.add_argument("--stats", help="stats CSV path")
    s.add_argument("--result-addr", type=_int_at_least(0), default=0)
    s.add_argument("--result-len", type=_int_at_least(0), default=0)
    s.add_argument("--cycle-limit", type=_int_at_least(1), default=DEFAULT_CYCLE_LIMIT)

    r = sub.add_parser("report", help="pretty-print a stats CSV")
    r.add_argument("--stats", required=True)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("WINDMILL_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    # looked up per call: a cmd_* replaced after the parser was built still runs
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (WindmillError, OSError) as exc:
        # a run-time fault is cmd_sim's to report; any other toolkit error, or
        # a file that cannot be read or written, is an input error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNMAPPABLE if isinstance(exc, Unmappable) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
