"""``repro generate`` and ``repro index``: write databases and persisted indexes."""

from __future__ import annotations

import argparse

from repro.chem.fasta import write_fasta
from repro.cli.options import add_db_options, load_database, positive_float, positive_int
from repro.utils.format import format_si
from repro.workloads.datasets import load_dataset


def cmd_generate(args: argparse.Namespace) -> int:
    db = (
        load_dataset(args.dataset, n=args.database_size)
        if args.dataset
        else load_database(args)
    )
    write_fasta(args.output, db)
    print(f"wrote {len(db)} sequences ({format_si(db.total_residues)} residues) to {args.output}")
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    """Build a persistent index store (build once, load many).

    By default the store holds the database's mass-sorted row table and
    the fragment index's posting list over it.  With ``--partition-mb``
    it holds the same row table and a partition directory instead:
    mass-contiguous row ranges, streamed and scored directly at search
    time (``search --stream`` / ``--index-path``).  It holds no fragment
    index, so the index-shape options do not apply to it.
    """
    from repro.store import save_index, save_partitioned_index

    if args.partition_mb is not None:
        from repro.errors import ConfigError

        for flag, value in (
            ("--fragment-tolerance", args.fragment_tolerance),
            ("--index-max-length", args.max_length),
        ):
            if value is not None:
                raise ConfigError(
                    f"{flag} shapes a fragment index; a partitioned store "
                    f"(--partition-mb) holds every span and no index"
                )
    db = load_database(args)
    if args.partition_mb is not None:
        store = save_partitioned_index(
            db, args.output, partition_mb=args.partition_mb, overwrite=args.overwrite
        )
        what = (
            f"{store.num_rows} row(s) in {store.num_partitions} partition(s), "
            f"{format_si(store.max_partition_bytes)}B double-buffer unit"
        )
    else:
        store = save_index(
            db,
            args.output,
            fragment_tolerance=args.fragment_tolerance or 0.5,
            max_length=args.max_length or 48,
            overwrite=args.overwrite,
        )
        what = f"{store.layout.num_fragments} fragment(s), each b and y ion posted once"
    print(
        f"built index store for {len(db)} sequences "
        f"({format_si(db.total_residues)} residues): {what}, "
        f"{format_si(store.nbytes)}B at {args.output}"
    )
    print(f"fingerprint {store.fingerprint}")
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """Print a persisted index's header: schema, fingerprint, manifests.

    Every store reports its database and index sections and its row
    table (every span of the database); then either the postings (on
    the rows inside the envelope) or, for a partitioned store, each
    partition's row range, mass range and size.
    """
    from repro.store import open_any_index

    info = open_any_index(args.path).describe()
    build = " ".join(f"{key}={value}" for key, value in info["build"].items())
    print(f"index store {info['path']}")
    print(f"  schema       {info['schema']}")
    print(f"  fingerprint  {info['fingerprint']}")
    print(f"  build        {build}")
    print(
        f"  bytes        total={format_si(info['total_bytes'])}B "
        f"database/={format_si(info['database_bytes'])}B "
        f"index/={format_si(info['index_bytes'])}B"
    )
    if "partitions" not in info:
        print(
            f"  rows         {info['num_rows']} ({info['num_fragments']} fragments, "
            f"each b and y ion of the rows of length 2-{info['build']['max_length']} "
            f"posted once)"
        )
        return 0
    print(
        f"  rows         {info['num_rows']} in {len(info['partitions'])} partition(s), "
        f"double_buffer_unit={format_si(info['max_partition_bytes'])}B"
    )
    for i, p in enumerate(info["partitions"]):
        print(
            f"  partition {i:5d}  rows [{p['lo']}, {p['hi']})  "
            f"m/z [{p['mass_lo']:.3f}, {p['mass_hi']:.3f}]  "
            f"sha256 {p['sha256'][:12]}"
        )
    return 0


def register(sub) -> None:
    p_gen = sub.add_parser("generate", help="write a synthetic protein database as FASTA")
    p_gen.add_argument("output", help="output FASTA path")
    add_db_options(p_gen)
    p_gen.add_argument("--dataset", choices=["human", "microbial"], default=None)
    p_gen.set_defaults(func=cmd_generate)

    p_index = sub.add_parser(
        "index", help="build or inspect a persistent fragment-index store"
    )
    index_sub = p_index.add_subparsers(dest="index_command", required=True)
    p_ib = index_sub.add_parser(
        "build", help="build an index store directory (build once, load many)"
    )
    p_ib.add_argument("output", help="index store directory to create")
    add_db_options(p_ib, "index")
    p_ib.add_argument(
        "--fragment-tolerance", type=positive_float, default=None,
        help="fragment m/z tolerance the index bins are sized for (Da; "
        "default 0.5)",
    )
    p_ib.add_argument(
        "--index-max-length", dest="max_length", type=positive_int, default=None,
        help="longest candidate span the index covers (default 48)",
    )
    p_ib.add_argument(
        "--partition-mb", type=positive_float, default=None,
        help="record a partition directory instead of a posting list: the "
        "database's mass-sorted spans are streamed at search time in "
        "partitions of this many MiB of rows",
    )
    p_ib.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store at the output path",
    )
    p_ib.set_defaults(func=cmd_index_build)
    p_ii = index_sub.add_parser(
        "inspect", help="print a persisted index's header and manifests"
    )
    p_ii.add_argument("path", help="index store directory")
    p_ii.set_defaults(func=cmd_index_inspect)
