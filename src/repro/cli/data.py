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
    """Build a persistent fragment-index store (build once, load many).

    With ``--partition-mb`` the store is the *partitioned* out-of-core
    format instead: the database's mass-sorted spans in mass-contiguous
    compressed partitions, streamed and scored directly at search time
    (``search --stream`` / ``--index-path``).  It holds no fragment
    index, so the index-shape options do not apply to it.
    """
    if args.partition_mb is not None:
        from repro.errors import ConfigError
        from repro.store import save_partitioned_index

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
        store = save_partitioned_index(
            db,
            args.output,
            partition_mb=args.partition_mb,
            overwrite=args.overwrite,
        )
        info = store.describe()
        print(
            f"built partitioned store for {len(db)} sequences "
            f"({format_si(db.total_residues)} residues): "
            f"{info['num_rows']} row(s) in "
            f"{info['num_partitions']} partition(s), "
            f"{format_si(info['blob_bytes'])}B compressed "
            f"({format_si(info['decoded_bytes'])}B decoded, "
            f"{format_si(info['max_partition_bytes'])}B double-buffer unit) "
            f"at {args.output}"
        )
        print(f"fingerprint {store.fingerprint}")
        return 0
    from repro.store import save_index

    db = load_database(args)
    store = save_index(
        db,
        args.output,
        fragment_tolerance=args.fragment_tolerance or 0.5,
        max_length=args.max_length or 48,
        overwrite=args.overwrite,
    )
    info = store.describe()
    print(
        f"built index for {len(db)} sequences "
        f"({format_si(db.total_residues)} residues): "
        f"{info['num_fragments']} fragment(s), "
        f"{format_si(info['total_bytes'])}B at {args.output}"
    )
    print(f"fingerprint {store.fingerprint}")
    return 0


def cmd_index_inspect(args: argparse.Namespace) -> int:
    """Print a persisted index's header: schema, fingerprint, manifests.

    Dispatches on the on-disk schema: resident stores report their
    database and index sections and their row table (every span of the
    database, the postings on those inside the envelope), partitioned
    stores list per-partition mass ranges, row counts and
    compressed/decoded sizes.
    """
    from repro.store import open_any_index
    from repro.store.partitioned import PartitionedIndex

    store = open_any_index(args.path)
    info = store.describe()
    if isinstance(store, PartitionedIndex):
        build = info["build"]
        print(f"partitioned index store {info['path']}")
        print(f"  schema       {info['schema']}")
        print(f"  fingerprint  {info['fingerprint']}")
        print(f"  build        partition_mb={build['partition_mb']}")
        print(
            f"  bytes        compressed={format_si(info['blob_bytes'])}B "
            f"decoded={format_si(info['decoded_bytes'])}B "
            f"double_buffer_unit={format_si(info['max_partition_bytes'])}B"
        )
        print(
            f"  rows         {info['num_rows']} in {info['num_partitions']} "
            f"partition(s)"
        )
        for p in info["partitions"]:
            print(
                f"  {p['name']}  m/z [{p['mass_lo']:.3f}, {p['mass_hi']:.3f}] "
                f"rows={p['num_rows']} "
                f"compressed={format_si(p['blob_bytes'])}B "
                f"decoded={format_si(p['decoded_bytes'])}B"
            )
        return 0
    build = info["build"]
    print(f"index store {info['path']}")
    print(f"  schema       {info['schema']}")
    print(f"  fingerprint  {info['fingerprint']}")
    print(
        f"  build        fragment_tolerance={build['fragment_tolerance']} "
        f"max_length={build['max_length']} "
        f"monoisotopic={build['monoisotopic']}"
    )
    print(
        f"  bytes        total={format_si(info['total_bytes'])}B "
        f"database/={format_si(info['database_bytes'])}B "
        f"index/={format_si(info['index_bytes'])}B"
    )
    print(
        f"  rows         {info['num_rows']} ({info['num_fragments']} fragments "
        f"posted for the rows of length 2-{build['max_length']})"
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
        help="build the *partitioned* out-of-core format instead: the "
        "database's mass-sorted spans in compressed partitions of this "
        "decoded size (MiB), streamed with prefetch at search time",
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
